//! Runtime values and the guest heap.
//!
//! The heap is an arena of objects and arrays addressed by dense indices.
//! Nothing is ever garbage collected (profiled runs are bounded), which
//! keeps object identities stable — a property AlgoProf's snapshot
//! equivalence criteria rely on.

use std::fmt;

use crate::bytecode::{ClassId, CompiledProgram, ElemKind, FieldId};

/// A reference to a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(pub u32);

/// A reference to a heap array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrRef(pub u32);

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// An `int`.
    Int(i64),
    /// A `boolean`.
    Bool(bool),
    /// The null reference.
    Null,
    /// An object reference.
    Obj(ObjRef),
    /// An array reference.
    Arr(ArrRef),
}

impl Value {
    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this value is a reference (object, array, or null).
    pub fn is_ref(self) -> bool {
        matches!(self, Value::Null | Value::Obj(_) | Value::Arr(_))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Null => write!(f, "null"),
            Value::Obj(o) => write!(f, "obj@{}", o.0),
            Value::Arr(a) => write!(f, "arr@{}", a.0),
        }
    }
}

/// A heap-allocated object: its class plus the extent of its field slots
/// in the heap's shared field arena.
///
/// Field values live in [`Heap`]'s arena rather than a per-object `Vec`,
/// so allocating an object never touches the system allocator. Objects
/// are never freed, so the extent stays valid for the heap's lifetime.
#[derive(Debug, Clone, Copy)]
pub struct Object {
    /// The exact runtime class.
    pub class: ClassId,
    /// First slot in the heap's field arena.
    base: u32,
    /// Number of field slots, per [`crate::bytecode::ClassInfo::field_layout`].
    len: u32,
}

impl Object {
    /// Number of field slots.
    pub fn field_count(&self) -> usize {
        self.len as usize
    }
}

/// A heap-allocated array.
#[derive(Debug, Clone)]
pub struct ArrayObj {
    /// Element kind.
    pub elem: ElemKind,
    /// Element values (`Int(0)`, `Bool(false)`, or `Null` initialized).
    pub elems: Vec<Value>,
}

/// One array element overwrite, as recorded in the heap's write log.
///
/// Old and new values are enough to maintain a snapshot's element
/// multiset without knowing the index; the array reference routes the
/// entry to the right cached measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayWrite {
    /// The array written to.
    pub arr: ArrRef,
    /// The value the slot held before the store.
    pub old: Value,
    /// The value stored.
    pub new: Value,
}

/// The guest heap.
///
/// Every mutation (allocation, field put, array store) advances a
/// monotonically increasing *epoch* and stamps the touched object or
/// array with it. Profilers use [`Heap::epoch`] and
/// [`Heap::modified_since`] to decide whether a cached structure
/// snapshot is still current without re-traversing the heap.
///
/// Array stores made through [`Heap::set_elem`] are additionally
/// journaled in a write log ([`Heap::array_writes_since`]), so a cached
/// array snapshot can be brought up to date by replaying the few stores
/// since it was taken instead of rescanning every element.
#[derive(Debug, Default, Clone)]
pub struct Heap {
    objects: Vec<Object>,
    /// Field slots of every object, contiguous per object (see [`Object`]).
    field_arena: Vec<Value>,
    arrays: Vec<ArrayObj>,
    /// Mutation epoch: incremented on every allocation and every
    /// mutable access to an object or array.
    epoch: u64,
    /// Last-modified epoch per object, indexed like `objects`.
    obj_stamps: Vec<u64>,
    /// Last-modified epoch per array, indexed like `arrays`.
    arr_stamps: Vec<u64>,
    /// Journal of element stores (see [`Heap::set_elem`]).
    write_log: Vec<ArrayWrite>,
    /// Absolute log position of `write_log[0]`; advanced when the log is
    /// truncated to bound memory. Replays from before this point must
    /// fall back to a full rescan.
    log_base: u64,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// The current mutation epoch. Strictly increases over every
    /// allocation, field put, and array store; two equal epochs bracket
    /// a window with no heap mutations.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// The epoch at which object `r` was last allocated or mutably
    /// accessed.
    pub fn object_stamp(&self, r: ObjRef) -> u64 {
        self.obj_stamps[r.0 as usize]
    }

    /// The epoch at which array `r` was last allocated or mutably
    /// accessed.
    pub fn array_stamp(&self, r: ArrRef) -> u64 {
        self.arr_stamps[r.0 as usize]
    }

    /// Whether the object or array behind `r` was allocated or mutated
    /// after `epoch`. Non-reference values are never modified.
    pub fn modified_since(&self, r: Value, epoch: u64) -> bool {
        match r {
            Value::Obj(o) => self.object_stamp(o) > epoch,
            Value::Arr(a) => self.array_stamp(a) > epoch,
            _ => false,
        }
    }

    /// Number of objects ever allocated.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of arrays ever allocated.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Allocates an object of `class` with `n_fields` null-initialized
    /// slots. Prefer [`Heap::alloc_object_from`] when the field layout's
    /// default values are known (int fields must start at `0`).
    pub fn alloc_object(&mut self, class: ClassId, n_fields: usize) -> ObjRef {
        self.alloc_object_from(class, std::iter::repeat_n(Value::Null, n_fields))
    }

    /// Allocates an object of `class` with the given initial field values.
    pub fn alloc_object_with(&mut self, class: ClassId, fields: Vec<Value>) -> ObjRef {
        self.alloc_object_from(class, fields)
    }

    /// Allocates an object of `class`, filling its field slots from an
    /// iterator of initial values. The values land directly in the field
    /// arena; no intermediate allocation happens.
    pub fn alloc_object_from(
        &mut self,
        class: ClassId,
        fields: impl IntoIterator<Item = Value>,
    ) -> ObjRef {
        let base = self.field_arena.len() as u32;
        self.field_arena.extend(fields);
        let len = self.field_arena.len() as u32 - base;
        let r = ObjRef(self.objects.len() as u32);
        self.objects.push(Object { class, base, len });
        let stamp = self.bump_epoch();
        self.obj_stamps.push(stamp);
        r
    }

    /// Allocates an array of `len` elements of `elem` kind.
    pub fn alloc_array(&mut self, elem: ElemKind, len: usize) -> ArrRef {
        let init = match elem {
            ElemKind::Int => Value::Int(0),
            ElemKind::Bool => Value::Bool(false),
            ElemKind::Ref => Value::Null,
        };
        let r = ArrRef(self.arrays.len() as u32);
        self.arrays.push(ArrayObj {
            elem,
            elems: vec![init; len],
        });
        let stamp = self.bump_epoch();
        self.arr_stamps.push(stamp);
        r
    }

    /// Returns the object behind `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` was not produced by this heap (a VM bug).
    pub fn object(&self, r: ObjRef) -> &Object {
        &self.objects[r.0 as usize]
    }

    /// The field slots of object `r`.
    pub fn fields(&self, r: ObjRef) -> &[Value] {
        let o = &self.objects[r.0 as usize];
        &self.field_arena[o.base as usize..(o.base + o.len) as usize]
    }

    /// Reads field slot `slot` of object `r`.
    #[inline]
    pub fn field(&self, r: ObjRef, slot: usize) -> Value {
        self.fields(r)[slot]
    }

    /// Mutable access to the field slots of object `r`. Counts as a
    /// mutation: the epoch advances and the object is re-stamped.
    pub fn fields_mut(&mut self, r: ObjRef) -> &mut [Value] {
        let stamp = self.bump_epoch();
        self.obj_stamps[r.0 as usize] = stamp;
        let o = &self.objects[r.0 as usize];
        &mut self.field_arena[o.base as usize..(o.base + o.len) as usize]
    }

    /// Writes field slot `slot` of object `r`, re-stamping the object
    /// only when the write can be observed by a structure snapshot.
    ///
    /// Snapshots read nothing but reference fields, so a primitive
    /// (int/bool) overwrite of a primitive value — or storing back the
    /// value already present — leaves every cached snapshot exact and
    /// must not invalidate it. Any write where the old or new value is a
    /// reference changes (or may change) the object's out-edges and
    /// re-stamps as [`Heap::fields_mut`] does.
    pub fn set_field(&mut self, r: ObjRef, slot: usize, value: Value) {
        let o = &self.objects[r.0 as usize];
        assert!((slot as u32) < o.len, "field slot out of range");
        let pos = o.base as usize + slot;
        let old = self.field_arena[pos];
        let shape_relevant = old != value
            && (matches!(old, Value::Obj(_) | Value::Arr(_))
                || matches!(value, Value::Obj(_) | Value::Arr(_)));
        if shape_relevant {
            let stamp = self.bump_epoch();
            self.obj_stamps[r.0 as usize] = stamp;
        }
        self.field_arena[pos] = value;
    }

    /// Returns the array behind `r`.
    pub fn array(&self, r: ArrRef) -> &ArrayObj {
        &self.arrays[r.0 as usize]
    }

    /// Mutable access to the array behind `r`. Counts as a mutation:
    /// the epoch advances and the array is re-stamped.
    ///
    /// Raw mutable access bypasses the write log, so it also truncates
    /// it: replays spanning this call would silently miss the mutation,
    /// and truncation forces them to a full rescan instead. Use
    /// [`Heap::set_elem`] for element stores.
    pub fn array_mut(&mut self, r: ArrRef) -> &mut ArrayObj {
        let stamp = self.bump_epoch();
        self.arr_stamps[r.0 as usize] = stamp;
        // The +1 skips a phantom position for the unjournalled mutation
        // itself: log positions captured at (not just before) the old
        // tail must also be invalidated, or a replay would see an empty
        // entry list and miss this write.
        self.log_base += self.write_log.len() as u64 + 1;
        self.write_log.clear();
        &mut self.arrays[r.0 as usize]
    }

    /// Upper bound on retained write-log entries; beyond it the log is
    /// truncated and older replay positions fall back to full rescans.
    const LOG_LIMIT: usize = 1 << 20;

    /// The current write-log position, for use with
    /// [`Heap::array_writes_since`].
    pub fn log_pos(&self) -> u64 {
        self.log_base + self.write_log.len() as u64
    }

    /// The element stores journaled since log position `pos`, or `None`
    /// when the log was truncated past `pos` (the caller must rescan).
    pub fn array_writes_since(&self, pos: u64) -> Option<&[ArrayWrite]> {
        let start = pos.checked_sub(self.log_base)?;
        self.write_log.get(start as usize..)
    }

    /// Stores `value` into element `idx` of array `r`, journaling the
    /// overwrite. Storing the value already present is a no-op: it
    /// neither advances the epoch nor re-stamps the array, since no
    /// snapshot can observe it.
    pub fn set_elem(&mut self, r: ArrRef, idx: usize, value: Value) {
        let old = self.arrays[r.0 as usize].elems[idx];
        if old == value {
            return;
        }
        let stamp = self.bump_epoch();
        self.arr_stamps[r.0 as usize] = stamp;
        if self.write_log.len() >= Self::LOG_LIMIT {
            self.log_base += self.write_log.len() as u64;
            self.write_log.clear();
        }
        self.write_log.push(ArrayWrite {
            arr: r,
            old,
            new: value,
        });
        self.arrays[r.0 as usize].elems[idx] = value;
    }
}

/// Convenience: reads the field `fid` of `obj` given the program's layout.
pub fn read_field(heap: &Heap, program: &CompiledProgram, obj: ObjRef, fid: FieldId) -> Value {
    let slot = program.field(fid).slot as usize;
    heap.field(obj, slot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_int(), None);
        assert!(Value::Null.is_ref());
        assert!(!Value::Int(0).is_ref());
    }

    #[test]
    fn alloc_and_access() {
        let mut heap = Heap::new();
        let o = heap.alloc_object(ClassId(0), 2);
        let a = heap.alloc_array(ElemKind::Int, 3);
        heap.fields_mut(o)[1] = Value::Int(5);
        heap.array_mut(a).elems[2] = Value::Int(9);
        assert_eq!(heap.field(o, 1), Value::Int(5));
        assert_eq!(
            heap.array(a).elems,
            vec![Value::Int(0), Value::Int(0), Value::Int(9)]
        );
        assert_eq!(heap.object_count(), 1);
        assert_eq!(heap.array_count(), 1);
    }

    #[test]
    fn array_default_initialization() {
        let mut heap = Heap::new();
        let b = heap.alloc_array(ElemKind::Bool, 1);
        let r = heap.alloc_array(ElemKind::Ref, 1);
        assert_eq!(heap.array(b).elems[0], Value::Bool(false));
        assert_eq!(heap.array(r).elems[0], Value::Null);
    }

    #[test]
    fn epoch_advances_on_mutation_only() {
        let mut heap = Heap::new();
        let e0 = heap.epoch();
        let o = heap.alloc_object(ClassId(0), 1);
        let a = heap.alloc_array(ElemKind::Int, 2);
        assert!(heap.epoch() > e0, "allocations advance the epoch");

        let quiet = heap.epoch();
        let _ = heap.object(o);
        let _ = heap.array(a);
        let _ = heap.object_stamp(o);
        assert_eq!(heap.epoch(), quiet, "reads do not advance the epoch");

        heap.fields_mut(o)[0] = Value::Int(1);
        assert!(heap.epoch() > quiet);
        assert_eq!(heap.object_stamp(o), heap.epoch());

        let before_store = heap.epoch();
        heap.array_mut(a).elems[0] = Value::Int(9);
        assert_eq!(heap.array_stamp(a), heap.epoch());
        assert!(heap.array_stamp(a) > before_store);
    }

    #[test]
    fn modified_since_tracks_individual_objects() {
        let mut heap = Heap::new();
        let o1 = heap.alloc_object(ClassId(0), 1);
        let o2 = heap.alloc_object(ClassId(0), 1);
        let mark = heap.epoch();
        heap.fields_mut(o2)[0] = Value::Int(3);
        assert!(!heap.modified_since(Value::Obj(o1), mark));
        assert!(heap.modified_since(Value::Obj(o2), mark));
        assert!(!heap.modified_since(Value::Int(5), mark));
        assert!(!heap.modified_since(Value::Null, mark));
        // A fresh allocation is "modified" relative to any earlier mark.
        let o3 = heap.alloc_object(ClassId(0), 0);
        assert!(heap.modified_since(Value::Obj(o3), mark));
    }

    #[test]
    fn write_log_records_element_overwrites() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(ElemKind::Int, 4);
        let mark = heap.log_pos();

        heap.set_elem(a, 0, Value::Int(7));
        heap.set_elem(a, 1, Value::Int(9));
        // Rewriting the same value is invisible: no log entry, no stamp.
        let quiet = heap.epoch();
        heap.set_elem(a, 0, Value::Int(7));
        assert_eq!(heap.epoch(), quiet);

        let writes = heap.array_writes_since(mark).expect("log intact");
        assert_eq!(
            writes,
            &[
                ArrayWrite {
                    arr: a,
                    old: Value::Int(0),
                    new: Value::Int(7)
                },
                ArrayWrite {
                    arr: a,
                    old: Value::Int(0),
                    new: Value::Int(9)
                },
            ]
        );
        assert!(heap
            .array_writes_since(heap.log_pos())
            .expect("empty tail")
            .is_empty());

        // Raw mutable access truncates the log: replays from `mark` must
        // rescan — and so must replays from the position captured right
        // before the raw write, which would otherwise silently miss it.
        let before_poke = heap.log_pos();
        heap.array_mut(a).elems[2] = Value::Int(1);
        assert!(heap.array_writes_since(mark).is_none());
        assert!(heap.array_writes_since(before_poke).is_none());
        assert!(heap
            .array_writes_since(heap.log_pos())
            .expect("fresh positions usable again")
            .is_empty());
    }

    #[test]
    fn set_field_stamps_only_reference_shape_changes() {
        let mut heap = Heap::new();
        let o = heap.alloc_object(ClassId(0), 2);
        let peer = heap.alloc_object(ClassId(0), 0);
        let mark = heap.epoch();

        // Primitive-over-primitive writes are invisible to snapshots.
        heap.set_field(o, 0, Value::Int(7));
        heap.set_field(o, 0, Value::Int(8));
        assert_eq!(heap.epoch(), mark, "int writes do not advance the epoch");
        assert_eq!(heap.field(o, 0), Value::Int(8));

        // Installing a reference changes the out-edges.
        heap.set_field(o, 1, Value::Obj(peer));
        assert!(heap.epoch() > mark);
        assert_eq!(heap.object_stamp(o), heap.epoch());

        // Storing back the same reference changes nothing.
        let quiet = heap.epoch();
        heap.set_field(o, 1, Value::Obj(peer));
        assert_eq!(heap.epoch(), quiet);

        // Clearing a reference changes the out-edges again.
        heap.set_field(o, 1, Value::Null);
        assert!(heap.epoch() > quiet);
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Obj(ObjRef(2)).to_string(), "obj@2");
    }
}
