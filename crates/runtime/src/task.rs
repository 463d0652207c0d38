//! Task launches and region requirements (paper §4).

use crate::instance::PhysicalRegion;
use std::fmt;
use std::sync::Arc;
use viz_region::{FieldId, Privilege, RegionId};
use viz_sim::NodeId;

/// Identifies a task launch. Task ids are assigned in **program order** —
/// the sequential-semantics "global clock" of §3.1 — so `TaskId` order *is*
/// the order reductions must be folded in to reproduce sequential results.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl TaskId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One region argument of a task: *which* data (a region and a field) and
/// *how* it is accessed (a privilege). The region names only the domain; the
/// runtime fills in correct values (§4).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RegionRequirement {
    pub region: RegionId,
    pub field: FieldId,
    pub privilege: Privilege,
}

impl RegionRequirement {
    pub fn new(region: RegionId, field: FieldId, privilege: Privilege) -> Self {
        RegionRequirement {
            region,
            field,
            privilege,
        }
    }

    pub fn read(region: RegionId, field: FieldId) -> Self {
        Self::new(region, field, Privilege::Read)
    }

    pub fn read_write(region: RegionId, field: FieldId) -> Self {
        Self::new(region, field, Privilege::ReadWrite)
    }

    pub fn reduce(region: RegionId, field: FieldId, op: viz_region::ReductionOpId) -> Self {
        Self::new(region, field, Privilege::Reduce(op))
    }
}

/// The function a task runs, given one [`PhysicalRegion`] per requirement
/// (in requirement order). Bodies must be deterministic for the
/// sequential-semantics guarantee to be observable.
pub type TaskBody = Arc<dyn Fn(&mut [PhysicalRegion]) + Send + Sync>;

/// A recorded task launch.
#[derive(Clone)]
pub struct TaskLaunch {
    pub id: TaskId,
    pub name: String,
    /// The node (processor) this task is mapped to.
    pub node: NodeId,
    /// The producer context that submitted it: [`crate::CTX_PRIMARY`] for
    /// the [`crate::Runtime`] facade, the context's id for a tenant
    /// [`crate::Context`] and its scoped fences, [`crate::CTX_GLOBAL`] for
    /// a global fence. Fills the struct's padding.
    pub ctx: u32,
    pub reqs: Vec<RegionRequirement>,
    /// Modeled execution duration on the target processor, for the timed
    /// executor. Ignored by the value executor.
    pub duration_ns: u64,
}

impl fmt::Debug for TaskLaunch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}:{}@n{} {:?}",
            self.id,
            self.name,
            self.node,
            self.reqs
                .iter()
                .map(|r| (r.region, r.field, r.privilege))
                .collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_region::{RedOpRegistry, ReductionOpId};

    #[test]
    fn task_ids_order_by_program_order() {
        assert!(TaskId(0) < TaskId(1));
        assert_eq!(TaskId(5).index(), 5);
    }

    #[test]
    fn requirement_constructors() {
        let r = RegionId(3);
        let f = FieldId(1);
        assert_eq!(RegionRequirement::read(r, f).privilege, Privilege::Read);
        assert_eq!(
            RegionRequirement::read_write(r, f).privilege,
            Privilege::ReadWrite
        );
        assert_eq!(
            RegionRequirement::reduce(r, f, RedOpRegistry::SUM).privilege,
            Privilege::Reduce(ReductionOpId(0))
        );
    }
}
