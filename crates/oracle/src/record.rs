//! Capture: convert a runtime's committed launch history (read off its
//! ledger and DAG) into the self-contained [`History`] the checker judges.
//!
//! This is the only module (besides the fuzz driver in [`crate::gen`])
//! allowed to import `viz-runtime`: it resolves each requirement's region
//! to its root tree and domain geometry through the region forest, after
//! which the history stands on its own — the judging path
//! ([`crate::history`] / [`crate::depa`] / [`crate::checker`]) never looks
//! back at the runtime.

use crate::history::{HLaunch, HPrivilege, HRequirement, History};
use viz_region::{Privilege, RegionForest};
use viz_runtime::{RecordedHistory, Runtime};

fn convert_privilege(p: Privilege) -> HPrivilege {
    match p {
        Privilege::Read => HPrivilege::Read,
        Privilege::ReadWrite => HPrivilege::ReadWrite,
        Privilege::Reduce(op) => HPrivilege::Reduce(op.0),
    }
}

/// Resolve a recorded history against the forest it ran under. The forest
/// only grows, so the snapshot taken at export time covers every region
/// any launch named.
pub fn resolve(recorded: &RecordedHistory, forest: &RegionForest) -> History {
    let launches = recorded
        .launches
        .iter()
        .map(|l| HLaunch {
            id: l.id.0,
            name: l.name.clone(),
            node: l.node as u32,
            ctx: l.ctx,
            signature: l.signature,
            reqs: l
                .reqs
                .iter()
                .map(|r| HRequirement {
                    root: forest.root_of(r.region).0,
                    region: r.region.0,
                    field: r.field.0,
                    privilege: convert_privilege(r.privilege),
                    domain: forest.domain(r.region).clone(),
                })
                .collect(),
            deps: l.deps.iter().map(|d| d.0).collect(),
            replayed: l.replayed,
            fence: l.fence,
        })
        .collect();
    History {
        engine: recorded.engine.clone(),
        launches,
        retirement: recorded.retirement.iter().map(|t| t.0).collect(),
    }
}

/// Drain the runtime and capture its full history (`None` once history GC
/// has retired a launch).
pub fn capture(rt: &Runtime) -> Option<History> {
    let recorded = rt.recorded_history()?;
    Some(resolve(&recorded, &rt.forest()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_runtime::{EngineKind, RuntimeConfig};

    #[test]
    fn capture_resolves_geometry_and_roots() {
        let cfg = RuntimeConfig::new(EngineKind::RayCast);
        let mut rt = Runtime::new(cfg);
        let root = rt.forest_mut().create_root_1d("A", 40);
        let f = rt.forest_mut().add_field(root, "v");
        let p = rt.forest_mut().create_equal_partition_1d(root, "P", 4);
        let piece = rt.forest().subregion(p, 2);
        rt.task("w").write(piece, f).submit().unwrap();
        rt.task("r").read(root, f).submit().unwrap();
        let h = capture(&rt).expect("nothing retired");
        assert_eq!(h.len(), 2);
        assert_eq!(h.launches[0].reqs[0].root, root.0);
        assert_eq!(h.launches[0].reqs[0].region, piece.0);
        assert_eq!(h.launches[0].reqs[0].domain.volume(), 10);
        assert_eq!(h.launches[1].reqs[0].domain.volume(), 40);
        assert_eq!(h.launches[1].deps, vec![0]);
        // And the checker accepts what the engine produced.
        assert!(crate::checker::check(&h).ok());
    }
}
