//! The bench suites, in the order `bench` runs them.

pub mod ablations;
pub mod adapt;
pub mod capacity;
pub mod demux;
pub mod engine;
pub mod layout;
pub mod pipeline;
pub mod replay;
pub mod trace;
pub mod traffic;
pub mod wire;

use crate::Suite;

pub const ALL: [Suite; 11] = [
    Suite {
        name: "pipeline",
        run: pipeline::run,
    },
    Suite {
        name: "replay",
        run: replay::run,
    },
    Suite {
        name: "layout",
        run: layout::run,
    },
    Suite {
        name: "traffic",
        run: traffic::run,
    },
    Suite {
        name: "engine",
        run: engine::run,
    },
    Suite {
        name: "capacity",
        run: capacity::run,
    },
    Suite {
        name: "demux",
        run: demux::run,
    },
    Suite {
        name: "adapt",
        run: adapt::run,
    },
    Suite {
        name: "trace",
        run: trace::run,
    },
    Suite {
        name: "wire",
        run: wire::run,
    },
    Suite {
        name: "ablations",
        run: ablations::run,
    },
];
