//! Cost models (paper §2.2 and §3.3).
//!
//! A repetition's cost is a map from *primitive operations on specific
//! inputs* to execution counts: algorithmic steps, structure reads and
//! writes (also broken down by element type), element creations, and
//! external input/output operations.

use std::collections::BTreeMap;
use std::fmt;

use algoprof_vm::ClassId;

use crate::inputs::InputId;

/// Read or write direction of a structure or array access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessOp {
    /// `GETFIELD` / `*ALOAD`.
    Read,
    /// `PUTFIELD` / `*ASTORE`.
    Write,
}

impl fmt::Display for AccessOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessOp::Read => "GET",
            AccessOp::Write => "PUT",
        })
    }
}

/// One countable primitive operation (the key space of a [`CostMap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostKey {
    /// One loop iteration or one recursive call (`cost{STEP}`).
    Step,
    /// An array element access on a known input
    /// (`cost{input#1, LOAD/STORE}`).
    ArrayAccess {
        /// The accessed input.
        input: InputId,
        /// Load or store.
        op: AccessOp,
    },
    /// A recursive-structure reference access on a known input
    /// (`cost{input#3, GET/PUT}`).
    StructAccess {
        /// The accessed input.
        input: InputId,
        /// Get or put.
        op: AccessOp,
    },
    /// A recursive-structure access broken down by element type
    /// (`cost{input#3, Vertex, PUT}`).
    StructAccessByType {
        /// The accessed input.
        input: InputId,
        /// Runtime class of the accessed object.
        class: ClassId,
        /// Get or put.
        op: AccessOp,
    },
    /// Allocation of an element of a recursive type
    /// (`cost{ListNode, NEW}`).
    Creation {
        /// Allocated class.
        class: ClassId,
    },
    /// One external input read.
    InputRead,
    /// One external output write.
    OutputWrite,
    /// One blocked lock acquisition (`LockWait`): the thread found the
    /// lock held by another thread and had to wait. Charged to the
    /// *blocked* thread's current invocation, following Coppa et al.'s
    /// rule that contention is cost borne by the waiter.
    LockContention,
}

/// What kind of heap location an access touched: an array slot, or an
/// object field (with the object's class when known).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessTarget {
    Array,
    Field(Option<ClassId>),
}

impl AccessTarget {
    /// The key one `op` access of this target on `input` counts under. A
    /// field access of known class counts only by type; its
    /// `StructAccess` total is derived later ([`CostMap::fold_by_type`]).
    pub fn key(self, input: InputId, op: AccessOp) -> CostKey {
        match self {
            AccessTarget::Array => CostKey::ArrayAccess { input, op },
            AccessTarget::Field(Some(class)) => CostKey::StructAccessByType { input, class, op },
            AccessTarget::Field(None) => CostKey::StructAccess { input, op },
        }
    }
}

/// A multiset of primitive-operation counts.
///
/// Ordered map so reports are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostMap {
    counts: BTreeMap<CostKey, u64>,
}

impl CostMap {
    /// Creates an empty cost map.
    pub fn new() -> Self {
        CostMap::default()
    }

    /// Increments the count for `key` by one.
    pub fn bump(&mut self, key: CostKey) {
        *self.counts.entry(key).or_insert(0) += 1;
    }

    /// Adds `n` to the count for `key`.
    pub fn add(&mut self, key: CostKey, n: u64) {
        if n > 0 {
            *self.counts.entry(key).or_insert(0) += n;
        }
    }

    /// The count for `key` (0 when absent).
    pub fn get(&self, key: CostKey) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Number of algorithmic steps.
    pub fn steps(&self) -> u64 {
        self.get(CostKey::Step)
    }

    /// Number of blocked lock acquisitions (lock contention events).
    pub fn contention(&self) -> u64 {
        self.get(CostKey::LockContention)
    }

    /// Merges `other` into `self` (used when combining child costs into a
    /// parent, paper §2.6).
    pub fn merge(&mut self, other: &CostMap) {
        for (&k, &v) in &other.counts {
            self.add(k, v);
        }
    }

    /// Adds every [`CostKey::StructAccessByType`] count to the
    /// [`CostKey::StructAccess`] total of its input and direction. The
    /// profiler counts a field access of known class only by type while
    /// an invocation runs, and folds once when it finishes.
    pub fn fold_by_type(&mut self) {
        let totals: Vec<(CostKey, u64)> = self
            .counts
            .iter()
            .filter_map(|(&key, &n)| match key {
                CostKey::StructAccessByType { input, op, .. } => {
                    Some((CostKey::StructAccess { input, op }, n))
                }
                _ => None,
            })
            .collect();
        for (key, n) in totals {
            self.add(key, n);
        }
    }

    /// Iterates over `(key, count)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (CostKey, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Whether no operation was counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total structure/array reads on `input`.
    pub fn reads_of(&self, input: InputId) -> u64 {
        self.get(CostKey::StructAccess {
            input,
            op: AccessOp::Read,
        }) + self.get(CostKey::ArrayAccess {
            input,
            op: AccessOp::Read,
        })
    }

    /// Total structure/array writes on `input`.
    pub fn writes_of(&self, input: InputId) -> u64 {
        self.get(CostKey::StructAccess {
            input,
            op: AccessOp::Write,
        }) + self.get(CostKey::ArrayAccess {
            input,
            op: AccessOp::Write,
        })
    }

    /// Total structure/array reads across all inputs.
    pub fn total_reads(&self) -> u64 {
        self.counts
            .iter()
            .filter_map(|(k, v)| match k {
                CostKey::StructAccess {
                    op: AccessOp::Read, ..
                }
                | CostKey::ArrayAccess {
                    op: AccessOp::Read, ..
                } => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Total structure/array writes across all inputs.
    pub fn total_writes(&self) -> u64 {
        self.counts
            .iter()
            .filter_map(|(k, v)| match k {
                CostKey::StructAccess {
                    op: AccessOp::Write,
                    ..
                }
                | CostKey::ArrayAccess {
                    op: AccessOp::Write,
                    ..
                } => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Total element creations across all classes.
    pub fn creations(&self) -> u64 {
        self.counts
            .iter()
            .filter_map(|(k, v)| match k {
                CostKey::Creation { .. } => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Classes allocated in this cost map.
    pub fn created_classes(&self) -> Vec<ClassId> {
        self.counts
            .keys()
            .filter_map(|k| match k {
                CostKey::Creation { class } => Some(*class),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IN0: InputId = InputId(0);
    const IN1: InputId = InputId(1);

    #[test]
    fn bump_and_get() {
        let mut c = CostMap::new();
        c.bump(CostKey::Step);
        c.bump(CostKey::Step);
        assert_eq!(c.steps(), 2);
        assert_eq!(c.get(CostKey::InputRead), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = CostMap::new();
        a.add(CostKey::Step, 3);
        let mut b = CostMap::new();
        b.add(CostKey::Step, 4);
        b.bump(CostKey::OutputWrite);
        a.merge(&b);
        assert_eq!(a.steps(), 7);
        assert_eq!(a.get(CostKey::OutputWrite), 1);
    }

    #[test]
    fn reads_and_writes_span_structs_and_arrays() {
        let mut c = CostMap::new();
        c.add(
            CostKey::StructAccess {
                input: IN0,
                op: AccessOp::Read,
            },
            5,
        );
        c.add(
            CostKey::ArrayAccess {
                input: IN0,
                op: AccessOp::Read,
            },
            2,
        );
        c.add(
            CostKey::ArrayAccess {
                input: IN1,
                op: AccessOp::Write,
            },
            9,
        );
        assert_eq!(c.reads_of(IN0), 7);
        assert_eq!(c.writes_of(IN0), 0);
        assert_eq!(c.writes_of(IN1), 9);
    }

    #[test]
    fn creations_by_class() {
        let mut c = CostMap::new();
        c.add(CostKey::Creation { class: ClassId(3) }, 4);
        c.add(CostKey::Creation { class: ClassId(5) }, 1);
        assert_eq!(c.creations(), 5);
        assert_eq!(c.created_classes(), vec![ClassId(3), ClassId(5)]);
    }

    #[test]
    fn fold_by_type_adds_per_class_counts_to_their_totals() {
        let by_type = |input, class, op| CostKey::StructAccessByType {
            input,
            class: ClassId(class),
            op,
        };
        let total = |input, op| CostKey::StructAccess { input, op };
        let mut c = CostMap::new();
        c.add(by_type(IN0, 3, AccessOp::Read), 4);
        c.add(by_type(IN0, 5, AccessOp::Read), 2);
        c.add(by_type(IN0, 3, AccessOp::Write), 1);
        c.add(by_type(IN1, 3, AccessOp::Read), 7);
        // A class-less access was counted as a total directly.
        c.add(total(IN1, AccessOp::Read), 1);
        c.add(CostKey::Step, 9);
        c.fold_by_type();
        assert_eq!(c.get(total(IN0, AccessOp::Read)), 6);
        assert_eq!(c.get(total(IN0, AccessOp::Write)), 1);
        assert_eq!(c.get(total(IN1, AccessOp::Read)), 8);
        assert_eq!(c.get(total(IN1, AccessOp::Write)), 0);
        // The per-type counts and everything else are left as they were.
        assert_eq!(c.get(by_type(IN0, 5, AccessOp::Read)), 2);
        assert_eq!(c.steps(), 9);
        assert_eq!(c.iter().count(), 8);
        assert_eq!(c.reads_of(IN0), 6);
    }

    #[test]
    fn add_zero_does_not_create_entry() {
        let mut c = CostMap::new();
        c.add(CostKey::Step, 0);
        assert!(c.is_empty());
    }
}
