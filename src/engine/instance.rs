//! The engine's topology-polymorphic instance currency.
//!
//! Every entry point of the [`Engine`](crate::engine::Engine) —
//! `solve`, `solve_batch`, `solvable` — takes an [`Instance`]: one enum
//! over the three input families the paper classifies. Each tier of a
//! registry plan declares which families it accepts, and the engine
//! matches `(problem, topology)` pairs at dispatch time instead of
//! hard-wiring the 2-d torus.
//!
//! A 2-dimensional [`Instance::TorusD`] is *canonically equivalent* to the
//! corresponding [`Instance::Torus2`]: `TorusD::index` of `[x, y]` equals
//! `Torus2::index` of `(x, y)`, so the engine lowers `d = 2` instances to
//! the 2-d fast path before dispatch and the two spellings produce
//! byte-identical labellings (and share batch-dedup groups).

use super::spec::Topology;
use lcl_algorithms::corner::BoundaryGrid;
use lcl_grid::{CsrAdjacency, Graph, Torus2};
use lcl_local::{GridInstance, IdAssignment, TorusDInstance};
use std::fmt;

/// A problem instance on any topology the engine supports: the single
/// input currency of [`Engine::solve`](crate::engine::Engine::solve) and
/// [`Engine::solve_batch`](crate::engine::Engine::solve_batch).
///
/// # Example
///
/// ```
/// use lcl_grids::engine::{Instance, Topology};
/// use lcl_grids::local::IdAssignment;
///
/// let flat = Instance::square(8, &IdAssignment::Sequential);
/// assert_eq!(flat.topology(), Topology::Torus2);
/// let cube = Instance::torus_d(3, 4, &IdAssignment::Sequential);
/// assert_eq!(cube.topology(), Topology::TorusD { d: 3 });
/// assert_eq!(cube.node_count(), 64);
/// ```
#[derive(Clone, Debug)]
pub enum Instance {
    /// An oriented 2-dimensional torus with unique identifiers — the
    /// paper's main setting.
    Torus2(GridInstance),
    /// An oriented d-dimensional torus with unique identifiers (§8, §10,
    /// Theorem 21).
    TorusD(TorusDInstance),
    /// A non-toroidal `m × m` grid with boundary (Appendix A.3).
    Boundary(BoundaryGrid),
}

impl Instance {
    /// An `n × n` 2-d torus instance with the given identifier assignment.
    pub fn square(n: usize, ids: &IdAssignment) -> Instance {
        Instance::Torus2(GridInstance::new(n, ids))
    }

    /// A `d`-dimensional side-`n` torus instance with the given identifier
    /// assignment. `d = 2` is kept as a `TorusD` instance; the engine
    /// lowers it to the equivalent 2-d instance at dispatch time.
    pub fn torus_d(d: usize, n: usize, ids: &IdAssignment) -> Instance {
        Instance::TorusD(TorusDInstance::new(d, n, ids))
    }

    /// An `m × m` boundary-grid instance (corner coordination input).
    pub fn boundary(m: usize) -> Instance {
        Instance::Boundary(BoundaryGrid::new(m))
    }

    /// A 2-d torus instance with sequential identifiers — handy for
    /// topology-level queries like
    /// [`Engine::solvable`](crate::engine::Engine::solvable), where the
    /// identifier assignment is irrelevant. Note that the identifiers are
    /// materialised eagerly (`node_count()` of them); hoist the instance
    /// out of loops that only re-ask the same topology-level question.
    pub fn torus2(torus: Torus2) -> Instance {
        let ids = IdAssignment::Sequential.materialise(torus.node_count());
        Instance::Torus2(GridInstance::from_ids(torus, ids))
    }

    /// The topology this instance lives on.
    pub fn topology(&self) -> Topology {
        match self {
            Instance::Torus2(_) => Topology::Torus2,
            Instance::TorusD(inst) => Topology::TorusD { d: inst.dim() },
            Instance::Boundary(_) => Topology::Boundary,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        match self {
            Instance::Torus2(inst) => inst.torus().node_count(),
            Instance::TorusD(inst) => inst.torus().node_count(),
            Instance::Boundary(grid) => grid.side() * grid.side(),
        }
    }

    /// The instance's side lengths, one per dimension.
    pub fn dims(&self) -> Vec<usize> {
        match self {
            Instance::Torus2(inst) => vec![inst.torus().width(), inst.torus().height()],
            Instance::TorusD(inst) => vec![inst.side(); inst.dim()],
            Instance::Boundary(grid) => vec![grid.side(), grid.side()],
        }
    }

    /// The smallest side length (the quantity solver `min_side`
    /// capabilities are checked against).
    pub fn min_side(&self) -> usize {
        self.dims().into_iter().min().unwrap_or(0)
    }

    /// True iff all side lengths are equal.
    pub fn is_square(&self) -> bool {
        let dims = self.dims();
        dims.iter().all(|&d| d == dims[0])
    }

    /// The unique identifiers in node-index order (empty for boundary
    /// grids, whose canonical corner-coordination solution is
    /// identifier-free).
    pub fn ids(&self) -> &[u64] {
        match self {
            Instance::Torus2(inst) => inst.ids(),
            Instance::TorusD(inst) => inst.ids(),
            Instance::Boundary(_) => &[],
        }
    }

    /// The instance's adjacency as a compact CSR view — the
    /// [`Graph`]-backed face every topology shares (ports in
    /// [`Graph::for_each_neighbour`] order, directly consumable by the
    /// LOCAL-model simulator).
    pub fn adjacency(&self) -> CsrAdjacency {
        match self {
            Instance::Torus2(inst) => inst.torus().adjacency(),
            Instance::TorusD(inst) => inst.torus().adjacency(),
            Instance::Boundary(grid) => grid.graph().adjacency(),
        }
    }

    /// The 2-d grid instance, if this is one.
    pub fn as_torus2(&self) -> Option<&GridInstance> {
        match self {
            Instance::Torus2(inst) => Some(inst),
            _ => None,
        }
    }

    /// The d-dimensional torus instance, if this is one.
    pub fn as_torus_d(&self) -> Option<&TorusDInstance> {
        match self {
            Instance::TorusD(inst) => Some(inst),
            _ => None,
        }
    }

    /// The boundary grid, if this is one.
    pub fn as_boundary(&self) -> Option<&BoundaryGrid> {
        match self {
            Instance::Boundary(grid) => Some(grid),
            _ => None,
        }
    }

    /// Lowers a 2-dimensional `TorusD` instance to the equivalent
    /// `Torus2` instance (`None` for everything else). The engine applies
    /// this before dispatch so `TorusD { d: 2 }` rides the full 2-d solver
    /// plan and produces labellings byte-identical to the `Torus2`
    /// spelling. Lowering clones the identifier vector — `O(n)`, the same
    /// order as the labelling every solve allocates anyway; callers on a
    /// measured hot path should construct `Torus2` instances directly.
    pub(crate) fn lower_d2(&self) -> Option<Instance> {
        match self {
            Instance::TorusD(inst) if inst.dim() == 2 => {
                Some(Instance::Torus2(inst.to_grid_instance()))
            }
            _ => None,
        }
    }

    /// The canonical dedup identity: topology tag plus dims, with
    /// `TorusD { d: 2 }` folded onto `Torus2` (the two spellings solve
    /// identically, so they may share one batch-dedup group).
    pub(crate) fn canonical_shape(&self) -> (u8, Vec<usize>) {
        match self {
            Instance::Torus2(_) => (0, self.dims()),
            Instance::TorusD(inst) if inst.dim() == 2 => (0, self.dims()),
            Instance::TorusD(_) => (1, self.dims()),
            Instance::Boundary(_) => (2, self.dims()),
        }
    }

    /// True iff two instances are interchangeable inputs: same canonical
    /// topology and dims, and identical identifier assignments.
    pub(crate) fn same_input(&self, other: &Instance) -> bool {
        self.canonical_shape() == other.canonical_shape() && self.ids() == other.ids()
    }
}

impl From<GridInstance> for Instance {
    fn from(inst: GridInstance) -> Instance {
        Instance::Torus2(inst)
    }
}

impl From<TorusDInstance> for Instance {
    fn from(inst: TorusDInstance) -> Instance {
        Instance::TorusD(inst)
    }
}

impl From<BoundaryGrid> for Instance {
    fn from(grid: BoundaryGrid) -> Instance {
        Instance::Boundary(grid)
    }
}

impl From<Torus2> for Instance {
    fn from(torus: Torus2) -> Instance {
        Instance::torus2(torus)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dims: Vec<String> = self.dims().iter().map(|d| d.to_string()).collect();
        write!(f, "{} {}", dims.join("x"), self.topology())
    }
}
