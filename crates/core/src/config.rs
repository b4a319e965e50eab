//! The paper's six measured configurations.

use std::sync::Arc;

use kcode::events::Ev;
use kcode::layout::{
    assemble_image, synthesize_layout, InlineSpec, LayoutPlan, LayoutRequest, LayoutStrategy,
};
use kcode::{Image, ImageConfig, Program};

use crate::world::{Stack, World};

/// Which protocol stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StackKind {
    TcpIp,
    Rpc,
}

/// The configurations of Section 4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Cloning used to *worsen* i-cache behaviour (pessimal layout).
    Bad,
    /// The improved x-kernel, no Section-3 techniques.
    Std,
    /// STD + outlining.
    Out,
    /// OUT + cloning with the bipartite layout.
    Clo,
    /// OUT + path-inlining.
    Pin,
    /// PIN + cloning — every technique.
    All,
}

impl Version {
    /// All six, in the paper's Table 4 order (decreasing latency).
    pub fn all() -> [Version; 6] {
        [Version::Bad, Version::Std, Version::Out, Version::Clo, Version::Pin, Version::All]
    }

    pub fn name(&self) -> &'static str {
        match self {
            Version::Bad => "BAD",
            Version::Std => "STD",
            Version::Out => "OUT",
            Version::Clo => "CLO",
            Version::Pin => "PIN",
            Version::All => "ALL",
        }
    }

    /// Layout strategy used by this version's clone placement.
    pub fn strategy(&self) -> LayoutStrategy {
        match self {
            Version::Bad => LayoutStrategy::Bad,
            Version::Std | Version::Out | Version::Pin => LayoutStrategy::LinkOrder,
            Version::Clo | Version::All => LayoutStrategy::Bipartite,
        }
    }

    /// Is outlining applied?
    pub fn outline(&self) -> bool {
        !matches!(self, Version::Std)
    }

    /// Are calls specialized (cloning enabled)?
    pub fn specialize(&self) -> bool {
        matches!(self, Version::Bad | Version::Clo | Version::All)
    }

    /// Is the path inlined?
    pub fn inlined(&self) -> bool {
        matches!(self, Version::Pin | Version::All)
    }

    /// The image-level knobs of this version.
    pub fn image_config(&self) -> ImageConfig {
        ImageConfig::plain(self.name())
            .with_outline(self.outline())
            .with_specialization(self.specialize())
    }

    /// The full layout request for this version.
    fn request(
        &self,
        (out_group, in_group): (Vec<kcode::FuncId>, Vec<kcode::FuncId>),
    ) -> LayoutRequest {
        let mut req = LayoutRequest::new(self.strategy(), self.image_config());
        if self.inlined() {
            req = req.with_inline(vec![
                InlineSpec { name: "path_out".into(), funcs: out_group },
                InlineSpec { name: "path_in".into(), funcs: in_group },
            ]);
        }
        req
    }

    /// Run the trace-driven half of image construction over `world`,
    /// given its recorded control flow: a reusable [`LayoutPlan`] that
    /// [`Version::assemble`] turns into an image without needing the
    /// flow again.
    pub fn synthesize<S: Stack>(&self, world: &World<S>, flow: &[Ev]) -> LayoutPlan {
        synthesize_layout(&world.program, &self.request(world.path_groups()), flow)
    }

    /// Assemble an image from a previously synthesized plan (cheap; no
    /// trace required).
    pub fn assemble(&self, program: &Arc<Program>, plan: &LayoutPlan) -> Image {
        let req = LayoutRequest::new(self.strategy(), self.image_config());
        assemble_image(program, &req, plan)
    }

    /// Build the image for this version of `world`, given its recorded
    /// control flow.
    pub fn build<S: Stack>(&self, world: &World<S>, flow: &[Ev]) -> Image {
        self.assemble(&world.program, &self.synthesize(world, flow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ping_pong;
    use crate::world::TcpIp;
    use protocols::StackOptions;

    #[test]
    fn all_six_versions_build_tcpip_images() {
        let run = ping_pong(World::<TcpIp>::build(StackOptions::improved()), 1);
        let flow = run.episodes.client_flow();
        for v in Version::all() {
            let img = v.build(&run.world, &flow);
            assert_eq!(img.config.name, v.name());
            if v.inlined() {
                assert!(img.is_inlined(run.world.model.f_tcp_input));
                assert!(img.is_inlined(run.world.model.f_tcp_output));
                assert!(!img.is_inlined(run.world.lib.cksum.f), "library stays callable");
            }
        }
    }

    #[test]
    fn version_properties() {
        assert!(!Version::Std.outline());
        assert!(Version::Out.outline());
        assert!(Version::Clo.specialize());
        assert!(!Version::Pin.specialize());
        assert!(Version::All.inlined());
        assert_eq!(Version::all().len(), 6);
    }
}
