//! Acceptance suite for the data-oriented layout engine on the paper's
//! actual workloads — all six versions of both protocol stacks.
//!
//! Two claims, following the machine-model `reference` pattern:
//!
//! 1. The optimized micro-positioner places every function at exactly
//!    the address the seed greedy (`layout::reference`) would, on each
//!    cell's client flow, outline setting and inlined set.
//! 2. The SweepEngine's synthesize-once / assemble-on-demand pipeline
//!    produces images bit-identical to direct `Version::build` — the
//!    memoized `LayoutPlan` loses no information.

use std::collections::HashSet;
use std::sync::Arc;

use kcode::layout::{micro_position, reference, LayoutRequest, LayoutStrategy};
use kcode::FuncId;
use protolat_core::config::{StackKind, Version};
use protolat_core::sweep::SweepEngine;
use protocols::StackOptions;

fn micro_agrees(
    label: &str,
    program: &Arc<kcode::Program>,
    flow: &[kcode::Ev],
    version: Version,
    inlined: &HashSet<FuncId>,
) {
    let req = LayoutRequest::new(
        LayoutStrategy::MicroPosition,
        version.image_config().with_outline(version.outline()),
    );
    let opt = micro_position(program, flow, &req, inlined);
    let seed = reference::micro_position(program, flow, &req, inlined);
    assert_eq!(opt, seed, "{label}: micro placements diverge from reference");
    assert!(!opt.is_empty(), "{label}: placements must not be empty");
}

#[test]
fn micro_position_matches_reference_on_all_twelve_cells() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();

    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        let run = eng.run(stack, opts, 2);
        let (out_group, in_group) = run.path_groups();
        for v in Version::all() {
            let inlined: HashSet<FuncId> = if v.inlined() {
                out_group.iter().chain(&in_group).copied().collect()
            } else {
                HashSet::new()
            };
            let label = format!("{stack:?}/{}", v.name());
            micro_agrees(&label, run.program(), run.flow().events(), v, &inlined);
        }
    }
}

#[test]
fn engine_images_equal_direct_builds_on_all_twelve_cells() {
    let eng = SweepEngine::new();
    let opts = StackOptions::improved();

    for stack in [StackKind::TcpIp, StackKind::Rpc] {
        for v in Version::all() {
            let from_plan = eng.image(stack, opts, 2, v);
            let run = eng.run(stack, opts, 2);
            let direct = v.assemble(run.program(), &run.synthesize(v));
            let label = format!("{stack:?}/{}", v.name());
            assert_eq!(
                from_plan.placements, direct.placements,
                "{label}: engine-assembled image diverges from direct build"
            );
            assert_eq!(from_plan.code_end, direct.code_end, "{label}: code_end");
            assert_eq!(
                from_plan.config.name, direct.config.name,
                "{label}: image config"
            );
        }
    }
    let (_, computed) = eng.layout_stats();
    assert_eq!(computed, 12, "one synthesized plan per cell");
}
