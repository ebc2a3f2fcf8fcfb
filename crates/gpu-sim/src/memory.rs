//! Simulated device global memory: an allocator with capacity enforcement and
//! live/peak byte tracking, plus typed buffers the kernels operate on.
//!
//! Buffers hold their data in host memory (execution is functional) but carry
//! a unique virtual base address so the coalescing and cache models see a
//! realistic address space. Peak-byte tracking regenerates the paper's Fig. 9
//! (GPU memory consumption); capacity enforcement reproduces ParTI's
//! out-of-memory failures on the large SpMTTKRP intermediates.

use crate::faults::{self, FaultCell};
use crate::record::{self, AccessKind};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

/// Allocation failure: the device ran out of global memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes that were requested.
    pub requested: usize,
    /// Bytes that were live at the time.
    pub live: usize,
    /// Device capacity.
    pub capacity: usize,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {} B live of {} B capacity",
            self.requested, self.live, self.capacity
        )
    }
}

impl std::error::Error for OutOfMemory {}

struct MemoryInner {
    capacity: usize,
    live: AtomicUsize,
    peak: AtomicUsize,
    next_base: AtomicUsize,
    /// Serializes the capacity check against concurrent allocations.
    alloc_lock: Mutex<()>,
    /// Live allocations by base address (`base → bytes`), the shadow map the
    /// sanitizer's out-of-bounds pass checks accesses against.
    allocations: Mutex<BTreeMap<u64, usize>>,
    /// Fault-injection slot (state plus lock-free fast flags); see
    /// [`crate::faults`].
    faults: FaultCell,
}

impl Drop for MemoryInner {
    fn drop(&mut self) {
        // A memory destroyed with an injector still installed must release
        // its claim on the global fault gate.
        if self.faults.state.get_mut().is_some() {
            faults::device_uninstalled();
        }
    }
}

/// Handle to a device's global memory.
#[derive(Clone)]
pub struct DeviceMemory {
    inner: Arc<MemoryInner>,
}

impl DeviceMemory {
    /// Creates a memory arena with the given capacity in bytes.
    pub fn new(capacity: usize) -> Self {
        DeviceMemory {
            inner: Arc::new(MemoryInner {
                capacity,
                live: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                next_base: AtomicUsize::new(256),
                alloc_lock: Mutex::new(()),
                allocations: Mutex::new(BTreeMap::new()),
                faults: FaultCell::new(),
            }),
        }
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    pub fn alloc_zeroed<T: DeviceValue>(&self, len: usize) -> Result<DeviceBuffer<T>, OutOfMemory> {
        self.alloc_from_iter((0..len).map(|_| T::ZERO))
    }

    /// Allocates a buffer initialized from a slice (a host→device copy).
    pub fn alloc_from_slice<T: DeviceValue>(
        &self,
        data: &[T],
    ) -> Result<DeviceBuffer<T>, OutOfMemory> {
        self.alloc_from_iter(data.iter().copied())
    }

    /// Allocates a buffer from an iterator.
    pub fn alloc_from_iter<T: DeviceValue>(
        &self,
        data: impl IntoIterator<Item = T>,
    ) -> Result<DeviceBuffer<T>, OutOfMemory> {
        let data: Vec<UnsafeCell<T>> = data.into_iter().map(UnsafeCell::new).collect();
        let bytes = data.len() * std::mem::size_of::<T>();
        // Fault-injection hook: a spurious allocation failure is reported as
        // a normal OutOfMemory (callers need no special handling) while the
        // injector latches an AllocFailure event so the host can tell it from
        // genuine capacity exhaustion.
        if faults::faults_active() && self.fault_alloc(bytes) {
            return Err(OutOfMemory {
                requested: bytes,
                live: self.inner.live.load(Ordering::Relaxed),
                capacity: self.inner.capacity,
            });
        }
        {
            let _guard = self.inner.alloc_lock.lock();
            let live = self.inner.live.load(Ordering::Relaxed);
            if live + bytes > self.inner.capacity {
                return Err(OutOfMemory {
                    requested: bytes,
                    live,
                    capacity: self.inner.capacity,
                });
            }
            let new_live = live + bytes;
            self.inner.live.store(new_live, Ordering::Relaxed);
            self.inner.peak.fetch_max(new_live, Ordering::Relaxed);
        }
        // 256-byte aligned virtual bases, like cudaMalloc. The extra 256-byte
        // gap between allocations guarantees that one-off overruns land in
        // unmapped address space, where the sanitizer's shadow check sees
        // them.
        let base = self
            .inner
            .next_base
            .fetch_add(bytes.div_ceil(256) * 256 + 256, Ordering::Relaxed);
        if bytes > 0 {
            self.inner.allocations.lock().insert(base as u64, bytes);
        }
        // Fault-injection hook: value (`f32`) regions are eligible bit-flip
        // targets; index/metadata words are modeled as parity-protected.
        if faults::faults_active() && T::FLIPPABLE {
            self.fault_register_region(base as u64, bytes);
        }
        Ok(DeviceBuffer {
            data,
            base: base as u64,
            memory: Arc::clone(&self.inner),
        })
    }

    /// Snapshot of the live allocations as `(base, bytes)` pairs, sorted by
    /// base address (the sanitizer's shadow memory map).
    pub fn live_allocations(&self) -> Vec<(u64, usize)> {
        self.inner
            .allocations
            .lock()
            .iter()
            .map(|(&base, &bytes)| (base, bytes))
            .collect()
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> usize {
        self.inner.live.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live bytes (to measure one phase).
    pub fn reset_peak(&self) {
        self.inner
            .peak
            .store(self.inner.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// The fault-injection slot shared by this memory's buffers (see
    /// [`crate::faults`] for the methods implemented on top of it).
    pub(crate) fn fault_cell(&self) -> &FaultCell {
        &self.inner.faults
    }
}

/// Types storable in device buffers.
pub trait DeviceValue: Copy + Send + Sync + 'static {
    /// The zero pattern used by [`DeviceMemory::alloc_zeroed`].
    const ZERO: Self;
    /// Whether buffers of this type are eligible ECC bit-flip targets under
    /// fault injection (value words; index/metadata words are modeled as
    /// parity-protected).
    const FLIPPABLE: bool;
    /// XORs a fault mask into the value's bit pattern (ECC-style corruption).
    fn xor_bits(self, mask: u32) -> Self;
}

impl DeviceValue for f32 {
    const ZERO: Self = 0.0;
    const FLIPPABLE: bool = true;
    fn xor_bits(self, mask: u32) -> Self {
        f32::from_bits(self.to_bits() ^ mask)
    }
}
impl DeviceValue for u32 {
    const ZERO: Self = 0;
    const FLIPPABLE: bool = false;
    fn xor_bits(self, mask: u32) -> Self {
        self ^ mask
    }
}
impl DeviceValue for u8 {
    const ZERO: Self = 0;
    const FLIPPABLE: bool = false;
    fn xor_bits(self, mask: u32) -> Self {
        self ^ (mask as u8)
    }
}

/// A typed buffer in simulated device memory.
///
/// Reads are always safe. Plain writes require the caller (the kernel) to
/// guarantee that no two threads write the same element — the same contract
/// CUDA gives global memory. For racy accumulation, `f32` buffers provide
/// [`DeviceBuffer::atomic_add_f32`], matching CUDA's `atomicAdd`.
pub struct DeviceBuffer<T: DeviceValue> {
    data: Vec<UnsafeCell<T>>,
    base: u64,
    memory: Arc<MemoryInner>,
}

impl<T: DeviceValue> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("len", &self.data.len())
            .field("base", &self.base)
            .finish()
    }
}

// SAFETY: element disjointness for plain writes is delegated to kernels,
// exactly like real GPU global memory; concurrent reads are fine.
unsafe impl<T: DeviceValue> Send for DeviceBuffer<T> {}
// SAFETY: same contract as `Send` above — shared references only allow
// reads and the explicitly-unsafe `write`, whose caller owns disjointness.
unsafe impl<T: DeviceValue> Sync for DeviceBuffer<T> {}

impl<T: DeviceValue> DeviceBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Virtual device address of element `index` (for the coalescing and
    /// cache models). The one-past-the-end index is allowed, as for raw
    /// pointers, so range narration can express exclusive end addresses.
    ///
    /// # Panics
    /// If `index` is beyond one past the end of the buffer, naming the index
    /// and the buffer length.
    #[inline]
    pub fn addr(&self, index: usize) -> u64 {
        assert!(
            index <= self.data.len(),
            "DeviceBuffer address out of bounds: index {index} exceeds length {} (base {:#x})",
            self.data.len(),
            self.base
        );
        self.base + (index * std::mem::size_of::<T>()) as u64
    }

    /// Reads element `index`.
    ///
    /// # Panics
    /// If `index` is out of bounds, naming the index and the buffer length
    /// (a `cudaMemcheck`-style loud failure instead of undefined behaviour).
    #[inline]
    pub fn get(&self, index: usize) -> T {
        assert!(
            index < self.data.len(),
            "DeviceBuffer read out of bounds: index {index} >= length {} (base {:#x})",
            self.data.len(),
            self.base
        );
        if record::recording_active() {
            record::on_access(
                AccessKind::FunctionalRead,
                self.base + (index * std::mem::size_of::<T>()) as u64,
                std::mem::size_of::<T>() as u32,
            );
        }
        // SAFETY: kernels never write an element that another thread reads
        // concurrently without atomics (CUDA global-memory contract).
        let value = unsafe { *self.data[index].get() };
        // Fault-injection hook: armed uncorrectable flips corrupt the read
        // until the memory is scrubbed. Gated on the same zero-cost global
        // check as recording, then a per-memory armed-flip count.
        if faults::faults_active() && self.memory.faults.flips_armed.load(Ordering::Relaxed) > 0 {
            let addr = self.base + (index * std::mem::size_of::<T>()) as u64;
            return faults::corrupt_value(&self.memory.faults, addr, value);
        }
        value
    }

    /// Writes element `index`.
    ///
    /// # Panics
    /// If `index` is out of bounds, naming the index and the buffer length.
    ///
    /// # Safety
    /// No other thread may access this element concurrently.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        assert!(
            index < self.data.len(),
            "DeviceBuffer write out of bounds: index {index} >= length {} (base {:#x})",
            self.data.len(),
            self.base
        );
        if record::recording_active() {
            record::on_access(
                AccessKind::FunctionalWrite,
                self.base + (index * std::mem::size_of::<T>()) as u64,
                std::mem::size_of::<T>() as u32,
            );
        }
        // SAFETY: `index` is bounds-checked above; exclusive access to this
        // element is the caller's obligation, stated in this fn's contract.
        unsafe { *self.data[index].get() = value };
    }

    /// Copies the buffer back to host memory.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Bytes this buffer occupies.
    pub fn bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl DeviceBuffer<f32> {
    /// Atomically adds `value` to element `index` (CUDA `atomicAdd` on
    /// `float`), implemented as a compare-and-swap loop on the bit pattern.
    ///
    /// # Panics
    /// If `index` is out of bounds, naming the index and the buffer length.
    #[inline]
    pub fn atomic_add_f32(&self, index: usize, value: f32) {
        self.record_atomic(index);
        self.apply_atomic_add_f32(index, value);
    }

    /// The issuing side of an `atomicAdd`: bounds-checks `index` and logs
    /// the functional atomic in the current block's record.
    #[inline]
    pub(crate) fn record_atomic(&self, index: usize) {
        assert!(
            index < self.data.len(),
            "DeviceBuffer atomic out of bounds: index {index} >= length {} (base {:#x})",
            self.data.len(),
            self.base
        );
        if record::recording_active() {
            record::on_access(
                AccessKind::FunctionalAtomic,
                self.base + (index * std::mem::size_of::<f32>()) as u64,
                std::mem::size_of::<f32>() as u32,
            );
        }
    }

    /// The memory side of an `atomicAdd` recorded by
    /// [`DeviceBuffer::record_atomic`]: the fault hook, then the add.
    #[inline]
    pub(crate) fn apply_atomic_add_f32(&self, index: usize, value: f32) {
        // Fault-injection hook (after the record event fires: the hardware
        // acknowledged the transaction, then lost the write). Gated on the
        // zero-cost global check, then this launch's armed flag.
        if faults::faults_active()
            && self.memory.faults.atomics_armed.load(Ordering::Relaxed)
            && faults::drop_atomic(
                &self.memory.faults,
                self.base + (index * std::mem::size_of::<f32>()) as u64,
                value.to_bits(),
            )
        {
            return;
        }
        // SAFETY: UnsafeCell<f32> and AtomicU32 have identical size and
        // alignment; all concurrent accesses to accumulated elements go
        // through this method.
        let atomic: &AtomicU32 = unsafe { AtomicU32::from_ptr(self.data[index].get() as *mut u32) };
        let mut current = atomic.load(Ordering::Relaxed);
        loop {
            let next = (f32::from_bits(current) + value).to_bits();
            match atomic.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

impl<T: DeviceValue> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        let bytes = self.bytes();
        self.memory.live.fetch_sub(bytes, Ordering::Relaxed);
        if bytes > 0 {
            self.memory.allocations.lock().remove(&self.base);
        }
        // Fault-injection hook: flips aimed at freed memory are disarmed.
        if faults::faults_active() && T::FLIPPABLE {
            faults::forget_region(&self.memory.faults, self.base, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_tracks_live_and_peak() {
        let memory = DeviceMemory::new(1 << 20);
        let a = memory.alloc_zeroed::<f32>(1000).unwrap();
        assert_eq!(memory.live_bytes(), 4000);
        {
            let _b = memory.alloc_zeroed::<u32>(500).unwrap();
            assert_eq!(memory.live_bytes(), 6000);
            assert_eq!(memory.peak_bytes(), 6000);
        }
        assert_eq!(memory.live_bytes(), 4000);
        assert_eq!(memory.peak_bytes(), 6000);
        drop(a);
        assert_eq!(memory.live_bytes(), 0);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let memory = DeviceMemory::new(1024);
        let small = memory.alloc_zeroed::<f32>(128).unwrap();
        let err = memory.alloc_zeroed::<f32>(200).unwrap_err();
        assert_eq!(err.requested, 800);
        assert_eq!(err.live, 512);
        assert_eq!(err.capacity, 1024);
        drop(small);
        assert!(memory.alloc_zeroed::<f32>(200).is_ok());
    }

    #[test]
    fn buffers_have_disjoint_address_ranges() {
        let memory = DeviceMemory::new(1 << 20);
        let a = memory.alloc_zeroed::<f32>(100).unwrap();
        let b = memory.alloc_zeroed::<f32>(100).unwrap();
        let a_end = a.addr(99) + 4;
        assert!(b.addr(0) >= a_end, "buffer addresses overlap");
    }

    #[test]
    fn read_write_round_trip() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = memory.alloc_from_slice(&[1.0f32, 2.0, 3.0]).unwrap();
        // SAFETY: single-threaded test, no concurrent access to element 1.
        unsafe { buffer.write(1, 9.5) };
        assert_eq!(buffer.to_vec(), vec![1.0, 9.5, 3.0]);
    }

    #[test]
    fn atomic_add_from_many_threads() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = std::sync::Arc::new(memory.alloc_zeroed::<f32>(4).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let buffer = std::sync::Arc::clone(&buffer);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        buffer.atomic_add_f32(2, 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(buffer.get(2), 8000.0);
        assert_eq!(buffer.get(0), 0.0);
    }

    #[test]
    fn get_out_of_bounds_panics_loudly() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = memory.alloc_zeroed::<f32>(3).unwrap();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| buffer.get(3))).unwrap_err();
        let message = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains("read out of bounds"), "got: {message}");
        assert!(message.contains("index 3"), "got: {message}");
        assert!(message.contains("length 3"), "got: {message}");
    }

    #[test]
    fn write_out_of_bounds_panics_loudly() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = memory.alloc_zeroed::<u32>(5).unwrap();
        // SAFETY: index 17 is out of bounds, so the call panics before any
        // write happens; no aliasing is possible.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            buffer.write(17, 1)
        }))
        .unwrap_err();
        let message = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains("write out of bounds"), "got: {message}");
        assert!(message.contains("index 17"), "got: {message}");
        assert!(message.contains("length 5"), "got: {message}");
    }

    #[test]
    fn atomic_add_out_of_bounds_panics_loudly() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = memory.alloc_zeroed::<f32>(2).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            buffer.atomic_add_f32(2, 1.0)
        }))
        .unwrap_err();
        let message = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains("atomic out of bounds"), "got: {message}");
        assert!(message.contains("index 2"), "got: {message}");
        assert!(message.contains("length 2"), "got: {message}");
    }

    #[test]
    fn addr_allows_one_past_end_but_not_beyond() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = memory.alloc_zeroed::<f32>(4).unwrap();
        assert_eq!(buffer.addr(4), buffer.addr(0) + 16);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| buffer.addr(5))).unwrap_err();
        let message = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains("address out of bounds"), "got: {message}");
        assert!(message.contains("index 5"), "got: {message}");
    }

    #[test]
    fn live_allocations_tracks_alloc_and_drop() {
        let memory = DeviceMemory::new(1 << 20);
        assert!(memory.live_allocations().is_empty());
        let a = memory.alloc_zeroed::<f32>(10).unwrap();
        let b = memory.alloc_zeroed::<u8>(7).unwrap();
        let map = memory.live_allocations();
        assert_eq!(map, vec![(a.addr(0), 40), (b.addr(0), 7)]);
        drop(a);
        assert_eq!(memory.live_allocations(), vec![(b.addr(0), 7)]);
        drop(b);
        assert!(memory.live_allocations().is_empty());
    }

    #[test]
    fn zero_length_buffers_do_not_enter_shadow_map() {
        let memory = DeviceMemory::new(1 << 20);
        let empty = memory.alloc_zeroed::<f32>(0).unwrap();
        assert!(memory.live_allocations().is_empty());
        drop(empty);
        assert!(memory.live_allocations().is_empty());
    }

    #[test]
    fn reset_peak_rebases_to_live() {
        let memory = DeviceMemory::new(1 << 20);
        {
            let _big = memory.alloc_zeroed::<f32>(10_000).unwrap();
        }
        assert_eq!(memory.peak_bytes(), 40_000);
        memory.reset_peak();
        assert_eq!(memory.peak_bytes(), 0);
    }
}
