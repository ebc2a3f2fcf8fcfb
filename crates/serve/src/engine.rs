//! The serving engine: plan cache + memory pool + scheduler, end to end.
//!
//! [`ServeEngine::run`] replays a [`Workload`] against one or more simulated
//! devices. Each request resolves its plan (memory → disk → build), is
//! admitted against the device memory pool (queueing when the working set
//! does not fit), executes the unified kernel functionally to produce the
//! *same bits* as the one-shot API, and is placed on a stream of its
//! affinity device. Same-plan same-factor requests are batched: later
//! arrivals reuse the computed result and pay only the device→host copy.
//! CP-ALS requests run the full ALS loop through the same per-mode SpMTTKRP
//! plans, so a decomposition warms the cache for later single-op requests
//! and vice versa.

use crate::events::ProtocolEvent;
use crate::metrics::{ExecTier, LatencySummary, RequestMetrics};
use crate::plan::{Plan, PlanCache, PlanCacheStats, PlanKey, PlanSource};
use crate::pool::{AdmitError, DevicePool, PoolStats, ReservationId};
use crate::profile::{RequestProfile, ServeProfile};
use crate::scheduler::Scheduler;
use crate::workload::{Request, ServeOp, Workload};
use decomp::cp::{cp_als, CpOptions, MttkrpEngine};
use fcoo::{
    AnyFormat, AnyFormatDevice, DeviceMatrix, Fcoo, FcooDevice, FormatKind, LaunchConfig, TensorOp,
};
use gpu_sim::{DeviceConfig, FaultConfig, FaultEvent, GpuDevice, Timeline};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use tensor_core::datasets;
use tensor_core::{DenseMatrix, SemiSparseTensor, SparseTensorCoo, Val};

/// Serving-engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of simulated devices.
    pub devices: usize,
    /// Streams per device.
    pub streams_per_device: usize,
    /// Hardware model each device simulates.
    pub device_config: DeviceConfig,
    /// Host↔device transfer bandwidth in GB/s (PCIe 3.0 x16 ≈ 12).
    pub pcie_gbs: f64,
    /// Plan persistence directory (warm restarts) — `None` disables.
    pub plan_dir: Option<PathBuf>,
    /// Verify every unique computed result bit-exactly against the one-shot
    /// API after the run.
    pub verify: bool,
    /// Batch same-plan same-factor requests by reusing computed results.
    pub batching: bool,
    /// Maximum batched results kept for reuse.
    pub result_cache_cap: usize,
    /// Deterministic fault injection installed on every serving device
    /// (re-seeded per device via [`FaultConfig::for_device`]). `None`
    /// disables injection entirely: the hot path is then bit-exact with the
    /// engine's pre-fault behaviour, reports included. The plan-build
    /// scratch device never has an injector — preprocessing is host-side.
    pub fault_injection: Option<FaultConfig>,
    /// Recovery policy applied when `fault_injection` is active.
    pub fault_tolerance: FaultTolerance,
    /// Profile the run: every serving device traces its launches
    /// ([`gpu_sim::GpuDevice::start_tracing`]) and the report carries a
    /// [`ServeProfile`] with per-request lifecycle spans, launch/wave traces
    /// and the per-kernel counter rows. Tracing only observes — results,
    /// simulated timings and the rest of the report are bit-exact with an
    /// unprofiled run.
    pub profile: bool,
    /// Serve requests whose working set genuinely exceeds the device pool
    /// by streaming partition-aligned chunks through the out-of-core
    /// pipeline (`crates/ooc`) instead of rejecting them. The accumulated
    /// result is bit-exact with the in-core kernel; requests that fit keep
    /// taking the in-core path unchanged.
    pub ooc: bool,
    /// Device-byte budget for one out-of-core chunk. `None` derives a
    /// budget from the pool headroom left after the request's transient
    /// working set (a quarter of it, so pipelined chunks plus allocator
    /// slack stay resident together).
    pub ooc_chunk_budget: Option<usize>,
    /// Arrival-share threshold above which a plan is replicated to a second
    /// device: once a single plan's measured share of all routed arrivals
    /// exceeds this fraction (and [`ServeConfig::replication_min_requests`]
    /// arrivals have been observed), requests for it balance across two
    /// devices instead of pinning one.
    pub replication_share: f64,
    /// Minimum routed arrivals before the replication share is trusted —
    /// guards against replicating off a handful of early requests.
    pub replication_min_requests: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 1,
            streams_per_device: 2,
            device_config: DeviceConfig::titan_x(),
            pcie_gbs: 12.0,
            plan_dir: None,
            verify: false,
            batching: true,
            result_cache_cap: 256,
            fault_injection: None,
            fault_tolerance: FaultTolerance::default(),
            profile: false,
            ooc: true,
            ooc_chunk_budget: None,
            replication_share: 0.35,
            replication_min_requests: 24,
        }
    }
}

/// Fault-recovery policy: retry budget, backoff shape, watchdog, sampled
/// redundancy, and the quarantine / plan-invalidation thresholds.
#[derive(Debug, Clone)]
pub struct FaultTolerance {
    /// Discarded attempts tolerated per ladder tier before the request
    /// degrades to the next tier (unified → two-step → cpu).
    pub max_retries: usize,
    /// First retry backoff in µs; doubles per attempt up to the cap.
    pub backoff_base_us: f64,
    /// Ceiling of the exponential backoff (µs).
    pub backoff_cap_us: f64,
    /// Seed of the deterministic backoff jitter and redundancy sampling —
    /// same workload + same seeds ⇒ identical retry schedule.
    pub retry_seed: u64,
    /// A stream stall at least this long is cancelled by the watchdog: the
    /// request is charged this much dead time and the attempt is retried.
    /// Shorter stalls just add their dead time to the request's latency.
    pub watchdog_timeout_us: f64,
    /// Fraction of requests whose accepted result is re-executed on the
    /// same tier and compared bit-exactly (silent-corruption sampling).
    /// Zero disables redundancy.
    pub redundancy_rate: f64,
    /// Corrupting faults attributed to one device before it is quarantined
    /// and its work redistributed (only while another device stays healthy).
    pub quarantine_threshold: u64,
    /// Corrupting faults attributed to one plan before the plan cache entry
    /// is invalidated (memory and disk) and rebuilt from scratch.
    pub plan_fault_threshold: u64,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance {
            max_retries: 4,
            backoff_base_us: 50.0,
            backoff_cap_us: 800.0,
            retry_seed: 0x0BAD_F417,
            watchdog_timeout_us: 2_000.0,
            redundancy_rate: 0.0,
            quarantine_threshold: 25,
            plan_fault_threshold: 12,
        }
    }
}

/// Fault and recovery tallies accumulated over an engine's lifetime (like
/// the plan and pool counters, these are not reset between runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Corrected single-bit ECC events (data unaffected).
    pub ecc_single: u64,
    /// Uncorrectable double-bit ECC events.
    pub ecc_double: u64,
    /// Kernel launches dropped by injection.
    pub launch_failures: u64,
    /// Injected allocation failures.
    pub alloc_failures: u64,
    /// Stream stalls observed.
    pub stalls: u64,
    /// Lost atomic transactions.
    pub dropped_atomics: u64,
    /// Attempts discarded and retried.
    pub retries: u64,
    /// Stalls long enough for the watchdog to cancel the attempt.
    pub watchdog_cancellations: u64,
    /// Requests degraded to the two-step kernel.
    pub two_step_fallbacks: u64,
    /// Requests degraded to the sequential host reference.
    pub cpu_fallbacks: u64,
    /// Devices quarantined during the engine's lifetime.
    pub devices_quarantined: u64,
    /// Plans invalidated because their faults crossed the threshold.
    pub plans_invalidated: u64,
    /// Accepted results re-executed redundantly for integrity sampling.
    pub redundant_checks: u64,
    /// Redundant re-executions that disagreed (each forces a retry).
    pub redundant_mismatches: u64,
}

impl FaultStats {
    /// Total injected fault events observed.
    pub fn injected(&self) -> u64 {
        self.ecc_single
            + self.ecc_double
            + self.launch_failures
            + self.alloc_failures
            + self.stalls
            + self.dropped_atomics
    }

    fn record(&mut self, event: &FaultEvent) {
        match event {
            FaultEvent::EccSingle { .. } => self.ecc_single += 1,
            FaultEvent::EccDouble { .. } => self.ecc_double += 1,
            FaultEvent::LaunchFailure { .. } => self.launch_failures += 1,
            FaultEvent::AllocFailure { .. } => self.alloc_failures += 1,
            FaultEvent::StreamStall { .. } => self.stalls += 1,
            FaultEvent::DroppedAtomic { .. } => self.dropped_atomics += 1,
        }
    }
}

/// A request's computed result.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// SpTTM's semi-sparse tensor.
    Semi(SemiSparseTensor),
    /// SpMTTKRP / SpTTMc dense matrix.
    Dense(DenseMatrix),
    /// CP-ALS factor matrices and component weights.
    Cp {
        /// One column-normalized factor per mode.
        factors: Vec<DenseMatrix>,
        /// Component weights.
        lambda: Vec<Val>,
    },
}

impl JobOutput {
    /// Bytes of the result payload (what a device→host copy moves).
    pub fn bytes(&self) -> usize {
        match self {
            JobOutput::Semi(t) => t.values().len() * 4,
            JobOutput::Dense(m) => m.data().len() * 4,
            JobOutput::Cp { factors, lambda } => {
                factors.iter().map(|f| f.data().len() * 4).sum::<usize>() + lambda.len() * 4
            }
        }
    }

    /// Order-independent checksum of the result bits.
    ///
    /// Each element's canonical `f64` bit pattern is passed through the
    /// splitmix64 finalizer (a bijection on `u64`) and the mixed words are
    /// combined with a wrapping sum. The sum commutes, so any permutation
    /// of the same elements checksums identically; and because the mix is a
    /// bijection, changing *any single bit* of any element — a mantissa bit
    /// included — changes that element's mixed word and therefore the sum.
    /// A float sum has neither property: it is order-sensitive and absorbs
    /// small flips into rounding.
    pub fn checksum(&self) -> u64 {
        fn mixed(value: f32) -> u64 {
            // Canonicalize so that -0.0 and 0.0 checksum identically; NaN
            // payloads collapse to one canonical NaN.
            let v = value as f64;
            let bits = if v == 0.0 {
                0
            } else if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            };
            // splitmix64 finalizer (the workspace's standard offline mix).
            let mut z = bits.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let fold = |acc: u64, &v: &f32| acc.wrapping_add(mixed(v));
        match self {
            JobOutput::Semi(t) => t.values().iter().fold(0, fold),
            JobOutput::Dense(m) => m.data().iter().fold(0, fold),
            JobOutput::Cp { factors, lambda } => factors
                .iter()
                .flat_map(|f| f.data())
                .fold(lambda.iter().fold(0, fold), fold),
        }
    }
}

/// A request the engine could not serve.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Index of the request in the trace.
    pub index: usize,
    /// Why it was rejected.
    pub reason: String,
}

/// A request shed by deadline-aware admission: its certified
/// completion-time lower bound provably missed its deadline, so it was
/// terminated before executing (reservations released).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedRecord {
    /// Index of the request in the trace.
    pub index: usize,
    /// Device the request would have run on.
    pub device: usize,
    /// Certified completion-time lower bound (absolute simulated µs).
    pub estimate_us: f64,
    /// Absolute deadline the request could not meet (simulated µs).
    pub deadline_us: f64,
}

/// Overload-policy tallies for one run (reset at the start of every
/// [`ServeEngine::run`], so each report's conservation accounting —
/// served + rejected + shed = submitted — is self-contained).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Requests that arrived carrying a deadline.
    pub deadlined: u64,
    /// Requests shed because their certified completion-time lower bound
    /// provably missed their deadline.
    pub shed: u64,
    /// Plan affinities re-placed onto surviving devices by quarantines.
    pub rebalanced: u64,
    /// Hot plans replicated to a second device by the arrival-share policy.
    pub replicated: u64,
}

impl OverloadStats {
    /// True when any overload-policy action fired this run.
    pub fn any(&self) -> bool {
        self.deadlined > 0 || self.shed > 0 || self.rebalanced > 0 || self.replicated > 0
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-request metrics, in trace order (rejected and shed requests
    /// excluded).
    pub requests: Vec<RequestMetrics>,
    /// Requests that could not be served (unknown tensor, impossible fit).
    pub rejections: Vec<Rejection>,
    /// Requests shed by deadline-aware admission, in trace order. Every
    /// submitted request lands in exactly one of `requests`, `rejections`
    /// or `sheds`.
    pub sheds: Vec<ShedRecord>,
    /// Overload-policy tallies for this run.
    pub overload: OverloadStats,
    /// Plan-cache counters for the run.
    pub plan_stats: PlanCacheStats,
    /// Per-device pool counters.
    pub pool_stats: Vec<PoolStats>,
    /// Per-device peak bytes over the run.
    pub peak_bytes: Vec<usize>,
    /// Device capacity in bytes (same for all devices).
    pub capacity_bytes: usize,
    /// `utilizations[d][s]`: busy fraction of stream `s` on device `d`.
    pub utilizations: Vec<Vec<f64>>,
    /// When the last job finished (simulated µs).
    pub makespan_us: f64,
    /// Requests served by reusing a batched result.
    pub batched: usize,
    /// Requests admission control made wait for memory.
    pub deferred: usize,
    /// Unique results checked bit-exactly against the one-shot API.
    pub verified: usize,
    /// Verification mismatches (must be zero).
    pub verify_failures: usize,
    /// Fault and recovery tallies (all zero when injection is disabled).
    pub fault_stats: FaultStats,
    /// Per-request profiles and counter rows (present exactly when
    /// [`ServeConfig::profile`] was set).
    pub profile: Option<ServeProfile>,
}

impl ServeReport {
    /// Fraction of plan lookups that skipped preprocessing.
    pub fn hit_rate(&self) -> f64 {
        self.plan_stats.hit_rate()
    }

    /// End-to-end latency distribution.
    pub fn latency(&self) -> LatencySummary {
        LatencySummary::from_requests(&self.requests)
    }

    /// Served requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            return 0.0;
        }
        self.requests.len() as f64 / (self.makespan_us * 1e-6)
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let lat = self.latency();
        let mut out = String::new();
        out.push_str("serve summary\n");
        out.push_str(&format!(
            "  requests:       {} served ({} batched, {} deferred, {} rejected)\n",
            self.requests.len(),
            self.batched,
            self.deferred,
            self.rejections.len()
        ));
        out.push_str(&format!(
            "  makespan:       {:.1} µs simulated, throughput {:.0} req/s\n",
            self.makespan_us,
            self.throughput_rps()
        ));
        out.push_str(&format!(
            "  plan cache:     {} builds, {} disk hits, {} memory hits — hit rate {:.1}%\n",
            self.plan_stats.builds,
            self.plan_stats.disk_hits,
            self.plan_stats.memory_hits,
            self.hit_rate() * 100.0
        ));
        out.push_str(&format!(
            "  preprocessing:  {:.1} ms modeled host cost across builds\n",
            self.plan_stats.build_ms
        ));
        out.push_str(&format!(
            "  latency (µs):   p50 {:.1}  p90 {:.1}  p99 {:.1}  max {:.1}  mean {:.1}\n",
            lat.p50_us, lat.p90_us, lat.p99_us, lat.max_us, lat.mean_us
        ));
        for (d, stats) in self.pool_stats.iter().enumerate() {
            out.push_str(&format!(
                "  device {d}:       peak {:.2} MB of {:.0} MB, {} uploads, {} format reuses, {} evictions\n",
                self.peak_bytes[d] as f64 / (1024.0 * 1024.0),
                self.capacity_bytes as f64 / (1024.0 * 1024.0),
                stats.uploads,
                stats.format_reuses,
                stats.evictions
            ));
            for (s, u) in self.utilizations[d].iter().enumerate() {
                out.push_str(&format!("    stream {s}:     busy {:.1}%\n", u * 100.0));
            }
        }
        if self.fault_stats.injected() > 0 {
            let f = &self.fault_stats;
            out.push_str(&format!(
                "  faults:         {} injected — {} ecc-single, {} ecc-double, {} launch, {} alloc, {} stall, {} dropped-atomic\n",
                f.injected(),
                f.ecc_single,
                f.ecc_double,
                f.launch_failures,
                f.alloc_failures,
                f.stalls,
                f.dropped_atomics
            ));
            out.push_str(&format!(
                "  recovery:       {} retries, {} watchdog cancels, {} two-step + {} cpu fallbacks, {} quarantined, {} plans invalidated\n",
                f.retries,
                f.watchdog_cancellations,
                f.two_step_fallbacks,
                f.cpu_fallbacks,
                f.devices_quarantined,
                f.plans_invalidated
            ));
            if f.redundant_checks > 0 {
                out.push_str(&format!(
                    "  redundancy:     {} sampled re-executions, {} mismatches\n",
                    f.redundant_checks, f.redundant_mismatches
                ));
            }
        }
        if self.overload.any() {
            let o = &self.overload;
            out.push_str(&format!(
                "  overload:       {} deadlined, {} shed, {} affinities rebalanced, {} plans replicated\n",
                o.deadlined, o.shed, o.rebalanced, o.replicated
            ));
        }
        if self.verified > 0 || self.verify_failures > 0 {
            out.push_str(&format!(
                "  verification:   {} unique results checked bit-exact vs one-shot API, {} mismatches\n",
                self.verified, self.verify_failures
            ));
        }
        out
    }
}

struct Registered {
    tensor: SparseTensorCoo,
    fingerprint: u64,
}

struct CachedResult {
    output: JobOutput,
    /// Ladder tier that computed the output (verification re-runs the same
    /// tier — cross-tier results are numerically close, not bit-exact).
    tier: ExecTier,
}

/// Inputs and output of one executed CP-ALS job, kept for verification.
struct CpExecution {
    tensor_id: String,
    rank: usize,
    iterations: usize,
    factor_seed: u64,
    threadlens: Vec<usize>,
    block_size: usize,
    tier: ExecTier,
    output: JobOutput,
}

/// What the integrity barrier concluded about one attempt.
#[derive(Default)]
struct AttemptDamage {
    /// The attempt's output must be discarded.
    corrupted: bool,
    /// An injected allocation failure occurred (an `Err` from the attempt
    /// is then retryable rather than a genuine rejection).
    injected_alloc: bool,
    /// Stall dead time charged to the request (watchdog-capped).
    dead_us: f64,
}

/// The multi-tenant serving engine.
pub struct ServeEngine {
    config: ServeConfig,
    devices: Vec<GpuDevice>,
    pools: Vec<DevicePool>,
    /// Dedicated device for plan builds: the tuner's trial kernels allocate
    /// factors and outputs of their own, and running them against a serving
    /// device would collide with pool-resident formats under pressure.
    scratch: GpuDevice,
    plans: PlanCache,
    tensors: BTreeMap<String, Registered>,
    results: BTreeMap<(PlanKey, u64), CachedResult>,
    cp_executions: Vec<CpExecution>,
    fault_stats: FaultStats,
    /// Corrupting faults attributed to each device (quarantine evidence).
    device_fault_counts: Vec<u64>,
    /// Devices removed from the affinity rotation after repeated faults.
    quarantined: Vec<bool>,
    /// Corrupting faults correlated with one plan (invalidation evidence).
    plan_fault_counts: BTreeMap<PlanKey, u64>,
    /// Serving devices for each plan digest: primary first, then replicas.
    /// Entries are seeded lazily with the legacy rule (`digest % devices`,
    /// skipping quarantined devices) and rewritten eagerly when a
    /// quarantine fires — so stale affinities never route new work at a
    /// quarantined device — or when the replication policy adds a device.
    plan_affinity: BTreeMap<u64, Vec<usize>>,
    /// Routed arrivals per plan digest (replication evidence).
    plan_arrivals: BTreeMap<u64, u64>,
    /// Total routed arrivals (denominator of the replication share).
    total_arrivals: u64,
    /// Requests shed so far in the current run.
    sheds: Vec<ShedRecord>,
    /// Overload-policy tallies for the current run.
    overload: OverloadStats,
    /// Per-request profiles of the current run (only filled when
    /// [`ServeConfig::profile`] is set).
    profiled: Vec<RequestProfile>,
    /// Host-visible protocol transitions (only recorded after
    /// [`ServeEngine::enable_protocol_log`]); the `modelcheck` crate replays
    /// its property automata over this log.
    protocol: Vec<ProtocolEvent>,
    protocol_enabled: bool,
}

/// Deterministic per-mode factor seed derivation, shared with the one-shot
/// reference so served and reference runs see identical factor matrices.
pub fn factor_seed_for_mode(factor_seed: u64, mode: usize) -> u64 {
    factor_seed
        .wrapping_add((mode as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(1)
}

/// The host factor matrices a request for `op` uses, in the kernels'
/// factor order ([`TensorOp::factor_modes`]), each seeded by
/// [`factor_seed_for_mode`].
fn op_factors(shape: &[usize], op: TensorOp, rank: usize, factor_seed: u64) -> Vec<DenseMatrix> {
    op.factor_modes(shape.len())
        .into_iter()
        .map(|m| DenseMatrix::random(shape[m], rank, factor_seed_for_mode(factor_seed, m)))
        .collect()
}

/// Bytes a host→device copy of `hosts` moves.
fn matrix_bytes(hosts: &[DenseMatrix]) -> usize {
    hosts.iter().map(|h| h.data().len() * 4).sum()
}

fn upload_factors(
    memory: &gpu_sim::DeviceMemory,
    hosts: &[DenseMatrix],
) -> Result<Vec<DeviceMatrix>, gpu_sim::OutOfMemory> {
    hosts
        .iter()
        .map(|h| DeviceMatrix::upload(memory, h))
        .collect()
}

/// Launches `op`'s unified kernel on `format` with device factors in the
/// [`op_factors`] order.
fn launch_op(
    device: &GpuDevice,
    format: &AnyFormatDevice,
    op: TensorOp,
    factors: &[DeviceMatrix],
    cfg: &LaunchConfig,
) -> Result<(JobOutput, f64), gpu_sim::OutOfMemory> {
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    Ok(match op {
        TensorOp::SpTtm { .. } => {
            let (result, stats) = format.spttm(device, refs[0], cfg)?;
            (JobOutput::Semi(result), stats.time_us)
        }
        TensorOp::SpMttkrp { .. } => {
            let (result, stats) = format.spmttkrp(device, &refs, cfg)?;
            (JobOutput::Dense(result), stats.time_us)
        }
        TensorOp::SpTtmc { .. } => {
            let (result, stats) = format.spttmc_norder(device, &refs, cfg)?;
            (JobOutput::Dense(result), stats.time_us)
        }
    })
}

/// splitmix64 finalizer: the deterministic hash behind backoff jitter and
/// redundancy sampling (same workload + same seeds ⇒ same draws).
fn mix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Analytic host-execution model for the CPU fallback tier: `2·nnz·R·(N−1)`
/// flops at 2 GFLOP/s. An analytic model (not the wall clock) keeps reports
/// deterministic across runs and machines.
fn cpu_reference_us(nnz: usize, rank: usize, order: usize) -> f64 {
    2.0 * nnz as f64 * rank as f64 * order.saturating_sub(1) as f64 / 2000.0
}

/// The sequential host result for `op` with the engine's factor-seed
/// convention — the ladder's last rung, and its verification reference.
fn host_reference_output(
    tensor: &SparseTensorCoo,
    op: TensorOp,
    rank: usize,
    factor_seed: u64,
) -> JobOutput {
    let hosts = op_factors(tensor.shape(), op, rank, factor_seed);
    let refs: Vec<&DenseMatrix> = hosts.iter().collect();
    match op {
        TensorOp::SpTtm { mode } => JobOutput::Semi(tensor_core::ops::spttm(tensor, mode, refs[0])),
        TensorOp::SpMttkrp { mode } => {
            JobOutput::Dense(tensor_core::ops::spmttkrp(tensor, mode, &refs))
        }
        TensorOp::SpTtmc { mode } => {
            JobOutput::Dense(tensor_core::ops::spttmc_norder(tensor, mode, &refs))
        }
    }
}

/// Merges per-mode plan sources into one label for the request: any build
/// dominates, then any disk hit, then pure memory.
fn worst_source(sources: &[PlanSource]) -> PlanSource {
    if sources.contains(&PlanSource::Built) {
        PlanSource::Built
    } else if sources.contains(&PlanSource::Disk) {
        PlanSource::Disk
    } else {
        PlanSource::Memory
    }
}

/// What the admission loop resolved to: an admitted working set, or a
/// genuine (non-injected) `TooLarge` the caller routes — rejection on the
/// CP-ALS path, the out-of-core fallback on the tensor-op path.
enum AdmitOutcome {
    Admitted(crate::pool::Admitted),
    TooLarge { working_set: usize, message: String },
}

/// One request's lifecycle state, threaded through the steps every path
/// shares: admission, the deadline gate, the attempt ladder and
/// [`ServeEngine::complete`].
struct RequestCtx<'r> {
    index: usize,
    request: &'r Request,
    /// The request's plan key (a CP-ALS request's mode-0 plan): faults
    /// are attributed to it and single-op results are cached under it.
    key: PlanKey,
    device: usize,
    /// Earliest simulated start, advanced by admission deferrals.
    ready: f64,
    deferred: bool,
    /// Open pending reservations: `complete` commits them, the deadline
    /// gate and genuine failures release them.
    pendings: Vec<ReservationId>,
    retries: u32,
    faults_seen: u32,
    recovery_us: f64,
    /// Dead time (stalls and backoffs) not yet charged to a stream — the
    /// out-of-core path charges it per chunk or to the host escape.
    dead_us: f64,
    /// Attempt counter across every tier (backoff jitter and redundancy
    /// draws are keyed on it).
    attempt: u32,
}

impl<'r> RequestCtx<'r> {
    fn new(index: usize, request: &'r Request, key: PlanKey, device: usize) -> Self {
        RequestCtx {
            index,
            request,
            key,
            device,
            ready: request.arrival_us,
            deferred: false,
            pendings: Vec::new(),
            retries: 0,
            faults_seen: 0,
            recovery_us: 0.0,
            dead_us: 0.0,
            attempt: 0,
        }
    }

    fn id(&self) -> u64 {
        self.index as u64
    }

    fn take_dead(&mut self) -> f64 {
        std::mem::take(&mut self.dead_us)
    }
}

/// What one attempt concluded after its integrity barrier.
enum Attempt<T> {
    /// A clean result.
    Accept(T),
    /// Discarded (corrupted, injected failure, failed redundancy check):
    /// back off and retry.
    Retry,
    /// A genuine failure: this tier cannot serve the request at all.
    Fail(String),
}

/// Where a tier that exhausted its retry budget goes next. This is the
/// policy the paths keep apart; the attempt loop itself is shared.
#[derive(Clone, Copy)]
enum Ladder {
    /// Single ops: unified → two-step (3-order SpMTTKRP only) → host.
    Op { two_step: bool },
    /// CP-ALS: unified → host.
    Cp,
    /// One out-of-core stage: there is no lower device tier, the request
    /// escapes to the host whole.
    Chunk,
}

impl Ladder {
    fn next(self, tier: ExecTier) -> Option<ExecTier> {
        match (self, tier) {
            (Ladder::Chunk, _) => None,
            (Ladder::Op { two_step: true }, ExecTier::Unified) => Some(ExecTier::TwoStep),
            _ => Some(ExecTier::Cpu),
        }
    }
}

/// The plan a completed request reports against.
#[derive(Clone, Copy)]
struct PlanLabel {
    source: PlanSource,
    block_size: usize,
    threadlen: usize,
    format: FormatKind,
}

impl PlanLabel {
    fn of(plan: &Plan, source: PlanSource) -> Self {
        PlanLabel {
            source,
            block_size: plan.block_size,
            threadlen: plan.threadlen(),
            format: plan.kind(),
        }
    }
}

/// How a finished request's service span lands on the device timeline.
enum Slot {
    /// `h2d + kernel + d2h` on the device's least-loaded stream from the
    /// ready time, after `dead_us` of recovery dead time.
    Queued { dead_us: f64 },
    /// Already laid out stage by stage by the out-of-core pipeline.
    Pipelined {
        stream: usize,
        start_us: f64,
        finish_us: f64,
        exec_us: f64,
    },
}

/// Where a completed request's result goes.
enum Keep {
    /// A batched reply: the result already sits in the result cache.
    Cached,
    /// A fresh single-op result, cached for batching and verification.
    Result(JobOutput),
    /// A finished decomposition, kept for verification.
    Cp {
        iterations: usize,
        threadlens: Vec<usize>,
        output: JobOutput,
    },
}

/// An accepted request, ready for [`ServeEngine::complete`].
struct Completion {
    tier: ExecTier,
    h2d_us: f64,
    kernel_us: f64,
    d2h_us: f64,
    slot: Slot,
    plan: PlanLabel,
    /// Launch traces of the accepted attempt (empty unless profiling).
    launches: Vec<gpu_sim::LaunchTrace>,
    chunks: Vec<ooc::ChunkSchedule>,
    chunk_streams: [usize; 3],
    keep: Keep,
}

impl Completion {
    /// A queued completion with no transfers, kernel time or traces yet.
    fn queued(dead_us: f64, plan: PlanLabel, tier: ExecTier, keep: Keep) -> Self {
        Completion {
            tier,
            h2d_us: 0.0,
            kernel_us: 0.0,
            d2h_us: 0.0,
            slot: Slot::Queued { dead_us },
            plan,
            launches: Vec::new(),
            chunks: Vec::new(),
            chunk_streams: [0, 0, 0],
            keep,
        }
    }
}

impl ServeEngine {
    /// Creates an engine with `config.devices` fresh simulated devices.
    pub fn new(config: ServeConfig) -> Self {
        let devices: Vec<GpuDevice> = (0..config.devices.max(1))
            .map(|_| GpuDevice::new(config.device_config.clone()))
            .collect();
        let pools = devices
            .iter()
            .map(|d| DevicePool::new(d.memory().clone()))
            .collect();
        let plans = PlanCache::new(config.plan_dir.clone());
        // The plan-build scratch device models timing only, never results;
        // give it unbounded memory so tuning an out-of-core plan can hold a
        // format the serving pools cannot (simulated addresses don't feed
        // the timing model, so tuned winners are unchanged for plans that
        // also fit the real capacity).
        let scratch = GpuDevice::new(DeviceConfig {
            memory_capacity: usize::MAX / 2,
            ..config.device_config.clone()
        });
        if let Some(fault) = &config.fault_injection {
            for (i, device) in devices.iter().enumerate() {
                device.memory().install_faults(fault.for_device(i));
            }
        }
        if config.profile {
            // Serving devices only: the plan-build scratch device and the
            // verification references run off the profiled timeline.
            for device in &devices {
                device.start_tracing();
            }
        }
        let device_count = devices.len();
        ServeEngine {
            config,
            devices,
            pools,
            scratch,
            plans,
            tensors: BTreeMap::new(),
            results: BTreeMap::new(),
            cp_executions: Vec::new(),
            fault_stats: FaultStats::default(),
            device_fault_counts: vec![0; device_count],
            quarantined: vec![false; device_count],
            plan_fault_counts: BTreeMap::new(),
            plan_affinity: BTreeMap::new(),
            plan_arrivals: BTreeMap::new(),
            total_arrivals: 0,
            sheds: Vec::new(),
            overload: OverloadStats::default(),
            profiled: Vec::new(),
            protocol: Vec::new(),
            protocol_enabled: false,
        }
    }

    /// Starts recording every [`ProtocolEvent`] the engine performs.
    /// Recording is off by default: the serve path allocates nothing for
    /// events unless a checker asks for them.
    pub fn enable_protocol_log(&mut self) {
        self.protocol_enabled = true;
    }

    /// Drains the protocol log recorded so far.
    pub fn take_protocol_log(&mut self) -> Vec<ProtocolEvent> {
        std::mem::take(&mut self.protocol)
    }

    fn log_event(&mut self, event: ProtocolEvent) {
        if self.protocol_enabled {
            self.protocol.push(event);
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// One of the simulated devices (for recording/sanitizing runs).
    pub fn device(&self, index: usize) -> &GpuDevice {
        &self.devices[index]
    }

    /// One of the device memory pools (for leak assertions in tests and the
    /// chaos harness).
    pub fn pool(&self, index: usize) -> &DevicePool {
        &self.pools[index]
    }

    /// Fault and recovery tallies accumulated so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Registers a tensor under `id`; re-registering replaces it.
    pub fn register_tensor(&mut self, id: &str, tensor: SparseTensorCoo) {
        let fingerprint = crate::fingerprint::tensor_fingerprint(&tensor);
        self.tensors.insert(
            id.to_string(),
            Registered {
                tensor,
                fingerprint,
            },
        );
    }

    /// Microseconds a host↔device copy of `bytes` takes at the configured
    /// PCIe bandwidth (1 GB/s = 10³ bytes/µs).
    fn transfer_us(&self, bytes: usize) -> f64 {
        bytes as f64 / (self.config.pcie_gbs * 1e3)
    }

    /// Runs a workload: registers its tensors, then serves its requests in
    /// arrival order.
    pub fn run(&mut self, workload: &Workload) -> ServeReport {
        for spec in &workload.tensors {
            let (tensor, _) = datasets::generate(spec.kind, spec.nnz, spec.seed);
            self.register_tensor(&spec.id, tensor);
        }
        let mut scheduler = Scheduler::new(self.config.devices, self.config.streams_per_device);
        self.profiled.clear();
        self.sheds.clear();
        self.overload = OverloadStats::default();
        let mut requests = Vec::new();
        let mut rejections = Vec::new();
        let mut batched = 0usize;
        let mut deferred_count = 0usize;
        for (index, request) in workload.requests.iter().enumerate() {
            if request.deadline_us.is_some() {
                self.overload.deadlined += 1;
            }
            let served = match request.op {
                ServeOp::Tensor(op) => self.serve_tensor_op(index, request, op, &mut scheduler),
                ServeOp::CpAls { iterations } => {
                    self.serve_cp(index, request, iterations, &mut scheduler)
                }
            };
            match served {
                Ok(Some(metrics)) => {
                    if metrics.batched {
                        batched += 1;
                    }
                    if metrics.deferred {
                        deferred_count += 1;
                    }
                    requests.push(metrics);
                }
                // Shed: already recorded in `self.sheds` by the shed path.
                Ok(None) => {}
                Err(reason) => rejections.push(Rejection { index, reason }),
            }
        }
        // End of run: every in-flight reservation has a finish time by now,
        // so retiring at +∞ returns pool bytes-in-use to zero — the leak
        // check the chaos harness asserts on.
        for pool in &mut self.pools {
            pool.retire(f64::INFINITY);
        }
        let (verified, verify_failures) = if self.config.verify {
            self.verify_results()
        } else {
            (0, 0)
        };
        let profile = if self.config.profile {
            let profiled = std::mem::take(&mut self.profiled);
            Some(ServeProfile::assemble(
                self.config.device_config.clone(),
                profiled,
                |id| self.tensors.get(id).map(|r| &r.tensor),
            ))
        } else {
            None
        };
        ServeReport {
            requests,
            rejections,
            sheds: std::mem::take(&mut self.sheds),
            overload: self.overload,
            plan_stats: self.plans.stats(),
            pool_stats: self.pools.iter().map(DevicePool::stats).collect(),
            peak_bytes: self
                .devices
                .iter()
                .map(|d| d.memory().peak_bytes())
                .collect(),
            capacity_bytes: self.config.device_config.memory_capacity,
            utilizations: scheduler.utilizations(),
            makespan_us: scheduler.makespan_us(),
            batched,
            deferred: deferred_count,
            verified,
            verify_failures,
            fault_stats: self.fault_stats,
            profile,
        }
    }

    fn registered(&self, tensor_id: &str) -> Result<&Registered, String> {
        self.tensors
            .get(tensor_id)
            .ok_or_else(|| format!("unknown tensor `{tensor_id}`"))
    }

    /// Admits `key` with a defer-and-retry loop: queued jobs advance their
    /// ready time to the earliest in-flight release instead of failing.
    /// A *genuine* `TooLarge` is returned as data, not an event — the
    /// caller decides between rejecting and the out-of-core fallback.
    fn admit(
        &mut self,
        ctx: &mut RequestCtx,
        key: PlanKey,
        format: &AnyFormat,
        format_bytes: usize,
        transient_bytes: usize,
    ) -> AdmitOutcome {
        loop {
            match self.pools[ctx.device].admit(key, format, format_bytes, transient_bytes) {
                Ok(admitted) => {
                    self.log_event(ProtocolEvent::AdmitOk {
                        request: ctx.id(),
                        device: ctx.device,
                        uploaded: admitted.uploaded,
                    });
                    return AdmitOutcome::Admitted(admitted);
                }
                Err(AdmitError::Defer { until_us }) => self.defer(ctx, until_us),
                Err(too_large @ AdmitError::TooLarge { working_set, .. }) => {
                    // `TooLarge` can be a lie under injection: the pool's
                    // format upload hit an *injected* allocation failure.
                    // The latched event distinguishes the two — retry the
                    // injected case, surface the genuine one.
                    if self.config.fault_injection.is_some() {
                        let events = self.devices[ctx.device].memory().scrub_faults();
                        let injected_alloc = events
                            .iter()
                            .any(|e| matches!(e, FaultEvent::AllocFailure { .. }));
                        for event in &events {
                            self.fault_stats.record(event);
                        }
                        if injected_alloc {
                            self.fault_stats.retries += 1;
                            continue;
                        }
                    }
                    return AdmitOutcome::TooLarge {
                        working_set,
                        message: too_large.to_string(),
                    };
                }
            }
        }
    }

    /// [`Self::admit`] for paths with no chunked fallback (CP-ALS): a
    /// genuine `TooLarge` rejects the request.
    fn admit_or_reject(
        &mut self,
        ctx: &mut RequestCtx,
        key: PlanKey,
        format: &AnyFormat,
        format_bytes: usize,
        transient_bytes: usize,
    ) -> Result<crate::pool::Admitted, String> {
        match self.admit(ctx, key, format, format_bytes, transient_bytes) {
            AdmitOutcome::Admitted(admitted) => Ok(admitted),
            AdmitOutcome::TooLarge {
                working_set,
                message,
            } => {
                self.log_reject(ctx, working_set);
                Err(message)
            }
        }
    }

    /// Queues the request behind in-flight work until `until_us`.
    fn defer(&mut self, ctx: &mut RequestCtx, until_us: f64) {
        self.log_event(ProtocolEvent::AdmitDefer {
            request: ctx.id(),
            device: ctx.device,
            until_us,
        });
        ctx.deferred = true;
        ctx.ready = until_us.max(ctx.ready);
        self.pools[ctx.device].retire(ctx.ready);
    }

    fn log_reject(&mut self, ctx: &RequestCtx, working_set: usize) {
        self.log_event(ProtocolEvent::AdmitReject {
            request: ctx.id(),
            device: ctx.device,
            working_set,
        });
    }

    /// Opens a pending reservation of `bytes` for the request.
    fn reserve(&mut self, ctx: &mut RequestCtx, key: PlanKey, bytes: usize) {
        ctx.pendings
            .push(self.pools[ctx.device].reserve_pending(key, bytes));
        self.log_event(ProtocolEvent::ReservePending {
            request: ctx.id(),
            device: ctx.device,
            bytes,
        });
    }

    fn release(&mut self, ctx: &RequestCtx, pending: ReservationId) {
        self.pools[ctx.device].release(pending);
        self.log_event(ProtocolEvent::Release {
            request: ctx.id(),
            device: ctx.device,
        });
    }

    fn release_pendings(&mut self, ctx: &mut RequestCtx) {
        for pending in std::mem::take(&mut ctx.pendings) {
            self.release(ctx, pending);
        }
    }

    /// The legacy static affinity rule a fresh plan digest seeds its
    /// affinity entry with: `digest % devices`, re-hashed across the
    /// healthy devices when the preferred one is quarantined.
    fn affinity_seed(&self, digest: u64) -> usize {
        let preferred = (digest % self.devices.len() as u64) as usize;
        if !self.quarantined[preferred] {
            return preferred;
        }
        let healthy: Vec<usize> = (0..self.devices.len())
            .filter(|&d| !self.quarantined[d])
            .collect();
        if healthy.is_empty() {
            preferred
        } else {
            healthy[(digest % healthy.len() as u64) as usize]
        }
    }

    /// Routes a plan digest to a serving device: counts the arrival,
    /// replicates the plan to a second device once its measured arrival
    /// share crosses [`ServeConfig::replication_share`], and picks the
    /// earliest-available candidate (ties broken by lowest device index —
    /// with a single candidate this is bit-identical to the legacy static
    /// rule).
    fn route_device(&mut self, digest: u64, scheduler: &Scheduler) -> usize {
        self.total_arrivals += 1;
        let arrivals = {
            let n = self.plan_arrivals.entry(digest).or_insert(0);
            *n += 1;
            *n
        };
        if !self.plan_affinity.contains_key(&digest) {
            let seed = self.affinity_seed(digest);
            self.plan_affinity.insert(digest, vec![seed]);
        }
        let healthy: Vec<usize> = (0..self.devices.len())
            .filter(|&d| !self.quarantined[d])
            .collect();
        let entry = &self.plan_affinity[&digest];
        let share = arrivals as f64 / self.total_arrivals as f64;
        if entry.len() == 1
            && healthy.len() > 1
            && self.total_arrivals >= self.config.replication_min_requests
            && share > self.config.replication_share
        {
            // Hot plan: add the earliest-available healthy device that is
            // not already serving it (ties → lowest index).
            let primary = entry[0];
            let replica = healthy
                .iter()
                .copied()
                .filter(|&d| d != primary)
                .min_by(|&a, &b| {
                    scheduler
                        .device_available_us(a)
                        .total_cmp(&scheduler.device_available_us(b))
                        .then(a.cmp(&b))
                })
                .expect("healthy.len() > 1 guarantees a replica candidate");
            self.plan_affinity
                .get_mut(&digest)
                .expect("affinity entry exists: read above")
                .push(replica);
            self.overload.replicated += 1;
            self.log_event(ProtocolEvent::Replicate { primary, replica });
        }
        let entry = &self.plan_affinity[&digest];
        if entry.len() == 1 {
            return entry[0];
        }
        entry
            .iter()
            .copied()
            .min_by(|&a, &b| {
                scheduler
                    .device_available_us(a)
                    .total_cmp(&scheduler.device_available_us(b))
                    .then(a.cmp(&b))
            })
            .unwrap_or_else(|| self.affinity_seed(digest))
    }

    /// Re-places every plan affinity that still targets the quarantined
    /// `device_index` onto the surviving devices (same re-hash rule the
    /// lazy seeding uses, so routing stays deterministic), and drops the
    /// quarantined pool's unpinned cached formats — its memory is dead
    /// weight once no new work routes there.
    fn rebalance_affinities(&mut self, device_index: usize) {
        let healthy: Vec<usize> = (0..self.devices.len())
            .filter(|&d| !self.quarantined[d])
            .collect();
        if healthy.is_empty() {
            return;
        }
        let mut moved = 0usize;
        for (&digest, entry) in self.plan_affinity.iter_mut() {
            if !entry.contains(&device_index) {
                continue;
            }
            entry.retain(|&d| d != device_index);
            if entry.is_empty() {
                entry.push(healthy[(digest % healthy.len() as u64) as usize]);
            }
            moved += 1;
        }
        if moved > 0 {
            self.overload.rebalanced += moved as u64;
            self.log_event(ProtocolEvent::Rebalance {
                device: device_index,
                plans: moved,
            });
        }
        self.pools[device_index].clear();
    }

    /// The deadline gate every path shares. The certified completion-time
    /// lower bound is the request's earliest queue slot on its device plus
    /// the `lower_bound_us` terms, summed in order; the real placement can
    /// only start later and run longer, so a bound past the deadline proves
    /// it unreachable. Such a request releases every pending reservation
    /// and is shed. Returns true when it was shed.
    fn deadline_gate(
        &mut self,
        ctx: &mut RequestCtx,
        scheduler: &Scheduler,
        lower_bound_us: &[f64],
    ) -> bool {
        let Some(relative) = ctx.request.deadline_us else {
            return false;
        };
        let queue_start = ctx.ready.max(scheduler.device_available_us(ctx.device));
        let estimate_us = lower_bound_us.iter().fold(queue_start, |t, &us| t + us);
        let deadline_us = ctx.request.arrival_us + relative;
        if estimate_us > deadline_us {
            self.release_pendings(ctx);
            self.overload.shed += 1;
            self.sheds.push(ShedRecord {
                index: ctx.index,
                device: ctx.device,
                estimate_us,
                deadline_us,
            });
            self.log_event(ProtocolEvent::Shed {
                request: ctx.id(),
                device: ctx.device,
                estimate_us,
                deadline_us,
            });
            return true;
        }
        false
    }

    /// Capped exponential backoff with deterministic jitter for retry
    /// `attempt` of request `index`.
    fn backoff_us(&self, index: usize, attempt: u32) -> f64 {
        let ft = &self.config.fault_tolerance;
        let capped = (ft.backoff_base_us * f64::powi(2.0, attempt.min(16) as i32))
            .min(ft.backoff_cap_us.max(ft.backoff_base_us));
        let h = mix64(ft.retry_seed ^ (index as u64) ^ ((attempt as u64) << 32));
        // Jitter in [0.5, 1.0): half the schedule is deterministic floor.
        capped * (0.5 + 0.5 * (h >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Whether this accepted attempt is sampled for redundant re-execution.
    fn redundancy_draw(&self, index: usize, attempt: u32) -> bool {
        let ft = &self.config.fault_tolerance;
        if ft.redundancy_rate <= 0.0 {
            return false;
        }
        let h = mix64(
            ft.retry_seed
                .rotate_left(17)
                .wrapping_add(index as u64)
                .wrapping_add((attempt as u64) << 40),
        );
        (h >> 11) as f64 / ((1u64 << 53) as f64) < ft.redundancy_rate
    }

    /// Tallies an attempt's fault events, charges stall dead time
    /// (watchdog-capped), and attributes corrupting events to the device
    /// and plan for the quarantine/invalidation policy.
    fn absorb_events(
        &mut self,
        device_index: usize,
        key: PlanKey,
        events: &[FaultEvent],
    ) -> AttemptDamage {
        let watchdog = self.config.fault_tolerance.watchdog_timeout_us;
        let mut damage = AttemptDamage::default();
        for event in events {
            self.fault_stats.record(event);
            let mut corrupting = event.is_corrupting();
            match event {
                FaultEvent::StreamStall { stall_us, .. } => {
                    if *stall_us >= watchdog {
                        // The watchdog cancels the hung stream: the request
                        // pays the timeout, not the full stall, and the
                        // attempt is discarded (its kernel never finished).
                        self.fault_stats.watchdog_cancellations += 1;
                        damage.dead_us += watchdog;
                        corrupting = true;
                    } else {
                        damage.dead_us += stall_us;
                    }
                }
                FaultEvent::AllocFailure { .. } => damage.injected_alloc = true,
                _ => {}
            }
            if corrupting {
                damage.corrupted = true;
                self.device_fault_counts[device_index] += 1;
                *self.plan_fault_counts.entry(key).or_insert(0) += 1;
            }
        }
        damage
    }

    /// Applies the quarantine and plan-invalidation thresholds after an
    /// attempt's events have been attributed.
    fn apply_fault_policy(&mut self, device_index: usize, key: PlanKey) {
        let ft = &self.config.fault_tolerance;
        let quarantine_at = ft.quarantine_threshold;
        let plan_at = ft.plan_fault_threshold;
        if !self.quarantined[device_index]
            && self.device_fault_counts[device_index] >= quarantine_at
            && self.quarantined.iter().filter(|&&q| !q).count() > 1
        {
            self.quarantined[device_index] = true;
            self.fault_stats.devices_quarantined += 1;
            self.log_event(ProtocolEvent::Quarantine {
                device: device_index,
            });
            // Re-place the quarantined device's plan affinities immediately
            // — queued work behind a stale entry would otherwise keep
            // targeting the dead device until its own retry path noticed.
            self.rebalance_affinities(device_index);
        }
        if self.plan_fault_counts.get(&key).copied().unwrap_or(0) >= plan_at {
            self.plan_fault_counts.insert(key, 0);
            if self.plans.invalidate(key) {
                self.fault_stats.plans_invalidated += 1;
                self.log_event(ProtocolEvent::PlanInvalidate {
                    device: device_index,
                });
            }
        }
    }

    /// The per-attempt integrity barrier: scrubs the device (forcing full
    /// detection and repairing latent flips), tallies every event, charges
    /// stall dead time (watchdog-capped) to the request, and runs the
    /// quarantine/invalidation policy. No-op defaults when injection is off.
    fn integrity_barrier(&mut self, ctx: &mut RequestCtx) -> AttemptDamage {
        if self.config.fault_injection.is_none() {
            return AttemptDamage::default();
        }
        let events = self.devices[ctx.device].memory().scrub_faults();
        ctx.faults_seen += events.len() as u32;
        let damage = self.absorb_events(ctx.device, ctx.key, &events);
        self.log_event(ProtocolEvent::Scrub {
            request: ctx.id(),
            device: ctx.device,
            faults: events.len(),
            corrupted: damage.corrupted,
        });
        self.apply_fault_policy(ctx.device, ctx.key);
        ctx.recovery_us += damage.dead_us;
        ctx.dead_us += damage.dead_us;
        damage
    }

    /// Discards an attempt: counts the retry, draws the deterministic
    /// backoff, charges it as dead time and moves to the next attempt.
    fn backoff(&mut self, ctx: &mut RequestCtx) {
        ctx.retries += 1;
        self.fault_stats.retries += 1;
        let backoff_us = self.backoff_us(ctx.index, ctx.attempt);
        ctx.recovery_us += backoff_us;
        ctx.dead_us += backoff_us;
        self.log_event(ProtocolEvent::Backoff {
            request: ctx.id(),
            backoff_us,
        });
        ctx.attempt += 1;
    }

    fn degrade(&mut self, ctx: &RequestCtx, from: ExecTier, to: ExecTier) {
        if to == ExecTier::TwoStep {
            self.fault_stats.two_step_fallbacks += 1;
        } else {
            self.fault_stats.cpu_fallbacks += 1;
        }
        self.log_event(ProtocolEvent::Degrade {
            request: ctx.id(),
            from,
            to,
        });
    }

    fn log_attempt_start(&mut self, ctx: &RequestCtx, tier: ExecTier) {
        self.log_event(ProtocolEvent::AttemptStart {
            request: ctx.id(),
            device: ctx.device,
            attempt: ctx.attempt,
            tier,
        });
    }

    /// Drains the device's launch traces so each attempt's traces stay
    /// attributable; empty (and free) unless profiling.
    fn drain_launches(&self, device: usize) -> Vec<gpu_sim::LaunchTrace> {
        if self.config.profile {
            self.devices[device].drain_trace()
        } else {
            Vec::new()
        }
    }

    /// The attempt loop every path shares. A clean result is accepted; a
    /// genuine failure on the unified tier releases the request's
    /// reservations and rejects it, while a degraded tier that cannot run
    /// falls to the host; anything else backs off and retries. A tier that
    /// exhausts its retry budget moves down `ladder`, and `Ok(None)` means
    /// the ladder ran out (an out-of-core stage escaping to the host).
    fn attempt_ladder<T>(
        &mut self,
        ctx: &mut RequestCtx,
        ladder: Ladder,
        mut attempt: impl FnMut(&mut Self, &mut RequestCtx, ExecTier) -> Attempt<T>,
    ) -> Result<Option<(T, ExecTier)>, String> {
        let mut tier = ExecTier::Unified;
        let mut tier_attempts = 0usize;
        loop {
            match attempt(self, ctx, tier) {
                Attempt::Accept(value) => return Ok(Some((value, tier))),
                Attempt::Fail(reason) if tier == ExecTier::Unified => {
                    self.release_pendings(ctx);
                    return Err(reason);
                }
                Attempt::Fail(_) => {
                    self.degrade(ctx, tier, ExecTier::Cpu);
                    tier = ExecTier::Cpu;
                    tier_attempts = 0;
                    continue;
                }
                Attempt::Retry => {}
            }
            self.backoff(ctx);
            tier_attempts += 1;
            if tier_attempts > self.config.fault_tolerance.max_retries {
                let Some(next) = ladder.next(tier) else {
                    return Ok(None);
                };
                self.degrade(ctx, tier, next);
                tier = next;
                tier_attempts = 0;
            }
        }
    }

    /// The completion step every path shares: place the service span, commit
    /// the pending reservations at its finish, read the result back, record
    /// the profile (only when profiling), keep the result, and report.
    fn complete(
        &mut self,
        ctx: &mut RequestCtx,
        scheduler: &mut Scheduler,
        done: Completion,
    ) -> RequestMetrics {
        let (stream, start_us, finish_us, exec_us) = match done.slot {
            Slot::Queued { dead_us } => {
                let exec_us = done.h2d_us + done.kernel_us + done.d2h_us;
                let placement = if dead_us > 0.0 {
                    scheduler.place_on_device_delayed(ctx.device, ctx.ready, dead_us, exec_us)
                } else {
                    scheduler.place_on_device(ctx.device, ctx.ready, exec_us)
                };
                (
                    placement.stream,
                    placement.start_us,
                    placement.finish_us,
                    exec_us,
                )
            }
            Slot::Pipelined {
                stream,
                start_us,
                finish_us,
                exec_us,
            } => (stream, start_us, finish_us, exec_us),
        };
        self.log_event(ProtocolEvent::Place {
            request: ctx.id(),
            device: ctx.device,
            stream,
            start_us,
            finish_us,
        });
        for pending in std::mem::take(&mut ctx.pendings) {
            self.pools[ctx.device].commit(pending, finish_us);
            self.log_event(ProtocolEvent::Commit {
                request: ctx.id(),
                device: ctx.device,
                finish_us,
            });
        }
        self.log_event(ProtocolEvent::Accept {
            request: ctx.id(),
            device: ctx.device,
        });
        let request = ctx.request;
        let batched = matches!(done.keep, Keep::Cached);
        let chunks = done.chunks.len();
        if self.config.profile {
            self.profiled.push(RequestProfile {
                index: ctx.index,
                tensor_id: request.tensor_id.clone(),
                op: request.op,
                rank: request.rank,
                device: ctx.device,
                stream,
                arrival_us: request.arrival_us,
                start_us,
                finish_us,
                recovery_us: ctx.recovery_us,
                h2d_us: done.h2d_us,
                kernel_us: done.kernel_us,
                d2h_us: done.d2h_us,
                plan_source: done.plan.source,
                block_size: done.plan.block_size,
                threadlen: done.plan.threadlen,
                format: done.plan.format,
                batched,
                deferred: ctx.deferred,
                retries: ctx.retries,
                tier: done.tier,
                faults_seen: ctx.faults_seen,
                launches: done.launches,
                chunks: done.chunks,
                chunk_streams: done.chunk_streams,
            });
        }
        let checksum = match done.keep {
            Keep::Cached => self.results[&(ctx.key, request.factor_seed)]
                .output
                .checksum(),
            Keep::Result(output) => {
                let checksum = output.checksum();
                if self.config.batching {
                    self.results.insert(
                        (ctx.key, request.factor_seed),
                        CachedResult {
                            output,
                            tier: done.tier,
                        },
                    );
                    while self.results.len() > self.config.result_cache_cap.max(1) {
                        self.results.pop_first();
                    }
                }
                checksum
            }
            Keep::Cp {
                iterations,
                threadlens,
                output,
            } => {
                let checksum = output.checksum();
                self.cp_executions.push(CpExecution {
                    tensor_id: request.tensor_id.clone(),
                    rank: request.rank,
                    iterations,
                    factor_seed: request.factor_seed,
                    threadlens,
                    block_size: done.plan.block_size,
                    tier: done.tier,
                    output,
                });
                checksum
            }
        };
        RequestMetrics {
            index: ctx.index,
            tensor_id: request.tensor_id.clone(),
            op: request.op,
            rank: request.rank,
            device: ctx.device,
            stream,
            arrival_us: request.arrival_us,
            start_us,
            finish_us,
            exec_us,
            plan_source: done.plan.source,
            batched,
            deferred: ctx.deferred,
            checksum,
            retries: ctx.retries,
            tier: done.tier,
            faults_seen: ctx.faults_seen,
            recovery_us: ctx.recovery_us,
            chunks,
        }
    }

    /// Serves one tensor-op request. `Ok(Some(metrics))` = completed,
    /// `Ok(None)` = shed (recorded in `self.sheds`), `Err` = rejected —
    /// exactly one terminal state per request.
    fn serve_tensor_op(
        &mut self,
        index: usize,
        request: &Request,
        op: TensorOp,
        scheduler: &mut Scheduler,
    ) -> Result<Option<RequestMetrics>, String> {
        let registered = self.registered(&request.tensor_id)?;
        let order = registered.tensor.order();
        if op.mode() >= order {
            return Err(format!(
                "mode {} out of range for order-{order} tensor `{}`",
                op.mode(),
                request.tensor_id
            ));
        }
        let key = PlanKey::new(registered.fingerprint, op, request.rank);
        let device = self.route_device(key.digest(), scheduler);
        // Resolve the plan (host-side preprocessing; builds happen off the
        // device timeline, like the paper's host-side sort).
        let registered = &self.tensors[&request.tensor_id];
        let (plan, source) = self
            .plans
            .get_or_build(key, &registered.tensor, &self.scratch);
        let label = PlanLabel::of(&plan, source);
        let mut ctx = RequestCtx::new(index, request, key, device);
        self.pools[device].retire(ctx.ready);

        // Batching: a same-plan same-factor result is still cached — serve
        // this request from it, paying only the device→host copy (and the
        // deadline gate checks that even this lower bound can be met).
        if self.config.batching {
            if let Some(cached) = self.results.get(&(key, request.factor_seed)) {
                let d2h_us = self.transfer_us(cached.output.bytes());
                let tier = cached.tier;
                if self.deadline_gate(&mut ctx, scheduler, &[d2h_us]) {
                    return Ok(None);
                }
                let done = Completion {
                    d2h_us,
                    ..Completion::queued(0.0, label, tier, Keep::Cached)
                };
                return Ok(Some(self.complete(&mut ctx, scheduler, done)));
            }
        }

        let transient_bytes = transient_bytes_for(plan.fcoo(), request.rank);
        let admitted = match self.admit(
            &mut ctx,
            key,
            &plan.format,
            plan.format_bytes(),
            transient_bytes,
        ) {
            AdmitOutcome::Admitted(admitted) => admitted,
            AdmitOutcome::TooLarge {
                working_set,
                message,
            } => {
                // The format genuinely does not fit the pool. Stream it in
                // chunks instead of rejecting, unless out-of-core is off.
                if self.config.ooc {
                    return self.serve_chunked(&mut ctx, scheduler, &plan, label, transient_bytes);
                }
                self.log_reject(&ctx, working_set);
                return Err(message);
            }
        };
        // A pending reservation pins the working set while attempts run.
        self.reserve(&mut ctx, key, transient_bytes);
        // Lower bound: the factor upload the bus must move plus the plan
        // certificate's kernel-time floor.
        let factor_us = self.transfer_us(factor_bytes_for(plan.fcoo(), request.rank));
        if self.deadline_gate(
            &mut ctx,
            scheduler,
            &[factor_us, plan.certificate.time_lo_us],
        ) {
            return Ok(None);
        }

        let ladder = Ladder::Op {
            two_step: matches!(op, TensorOp::SpMttkrp { .. }) && order == 3,
        };
        let format = &admitted.format;
        let ((output, kernel_us, factor_bytes, launches), tier) = self
            .attempt_ladder(&mut ctx, ladder, |engine, ctx, tier| {
                engine.attempt_op(ctx, tier, format, &plan)
            })?
            .expect("the single-op ladder ends on the host tier");
        let uploaded_bytes = if admitted.uploaded {
            plan.format_bytes()
        } else {
            0
        };
        // The host tier computes off-device: nothing crosses the bus for it.
        let d2h_us = if tier == ExecTier::Cpu {
            0.0
        } else {
            self.transfer_us(output.bytes())
        };
        let done = Completion {
            h2d_us: self.transfer_us(factor_bytes + uploaded_bytes),
            kernel_us,
            d2h_us,
            launches,
            ..Completion::queued(ctx.recovery_us, label, tier, Keep::Result(output))
        };
        Ok(Some(self.complete(&mut ctx, scheduler, done)))
    }

    /// One in-core attempt on `tier`: execute, drain its launch traces, pass
    /// the integrity barrier (device tiers only — the host tier never
    /// touches the faulted device), and sample a clean result for
    /// redundant re-execution.
    fn attempt_op(
        &mut self,
        ctx: &mut RequestCtx,
        tier: ExecTier,
        format: &AnyFormatDevice,
        plan: &Plan,
    ) -> Attempt<(JobOutput, f64, usize, Vec<gpu_sim::LaunchTrace>)> {
        self.log_attempt_start(ctx, tier);
        let ran = self.execute_tier(ctx, tier, format, plan);
        let launches = self.drain_launches(ctx.device);
        let damage = if tier == ExecTier::Cpu {
            AttemptDamage::default()
        } else {
            self.integrity_barrier(ctx)
        };
        match ran {
            Ok((output, kernel_us, factor_bytes)) if !damage.corrupted => {
                if tier != ExecTier::Cpu
                    && self.redundancy_rejects(ctx, tier, format, plan, &output)
                {
                    Attempt::Retry
                } else {
                    Attempt::Accept((output, kernel_us, factor_bytes, launches))
                }
            }
            Err(reason) if !damage.injected_alloc && !damage.corrupted => Attempt::Fail(reason),
            _ => Attempt::Retry,
        }
    }

    /// Silent-corruption sampling: re-executes a sampled clean attempt on
    /// the same tier and stream (its kernel time is recovery cost) and
    /// compares bit-exactly. True when the attempt must be discarded.
    fn redundancy_rejects(
        &mut self,
        ctx: &mut RequestCtx,
        tier: ExecTier,
        format: &AnyFormatDevice,
        plan: &Plan,
        output: &JobOutput,
    ) -> bool {
        if self.config.fault_injection.is_none() || !self.redundancy_draw(ctx.index, ctx.attempt) {
            return false;
        }
        self.fault_stats.redundant_checks += 1;
        let redo = self.execute_tier(ctx, tier, format, plan);
        self.drain_launches(ctx.device);
        let damage = self.integrity_barrier(ctx);
        let Ok((redo_output, redo_us, _)) = redo else {
            return true;
        };
        ctx.recovery_us += redo_us;
        if damage.corrupted {
            return true; // inconclusive: the check itself faulted
        }
        if redo_output != *output {
            self.fault_stats.redundant_mismatches += 1;
            return true;
        }
        false
    }

    /// Serves a tensor-op request whose working set genuinely exceeds the
    /// device pool: split the plan's format into partition-aligned chunks
    /// sized to a byte budget, stream them through the 3-stage out-of-core
    /// pipeline (H2D / kernel / D2H on real device streams), and accumulate
    /// the per-chunk outputs into a result **bit-exact** with the in-core
    /// path.
    ///
    /// Pool accounting is chunk-granular: the job's transient working set
    /// (factors + output buffer) holds one pending reservation for the whole
    /// pipeline, while each chunk's format bytes take their own reservation
    /// committed at that chunk's D2H end — a fault that kills one chunk
    /// retries (or escapes to the host tier) without re-streaming or
    /// leaking any other chunk's bytes.
    fn serve_chunked(
        &mut self,
        ctx: &mut RequestCtx,
        scheduler: &mut Scheduler,
        plan: &Plan,
        label: PlanLabel,
        transient_bytes: usize,
    ) -> Result<Option<RequestMetrics>, String> {
        let capacity = self.config.device_config.memory_capacity;
        let headroom = capacity.saturating_sub(transient_bytes);
        if headroom == 0 {
            self.log_reject(ctx, transient_bytes);
            return Err(format!(
                "transient working set of {transient_bytes} B leaves no out-of-core headroom on a {capacity} B device"
            ));
        }
        let budget = self
            .config
            .ooc_chunk_budget
            .unwrap_or(headroom / 4)
            .clamp(1, headroom);
        let chunk_plan = self.plans.chunk_plan(ctx.key, plan.fcoo(), budget);
        // Chunks reuse the in-core defer/evict machinery: wait out pinned
        // reservations, evict other plans' cached formats, and reject only
        // if even one chunk plus the transients cannot fit. Chunks are
        // rehydrated into the plan's format at upload time, so the budget
        // charges each format's schedule metadata (BF-COO buckets) too.
        let gather_modes = plan.fcoo().product_indices.len();
        let rehydrated_bytes = |nnz: usize, format_bytes: usize| {
            format_bytes + plan.kind().metadata_bytes(nnz, gather_modes)
        };
        let max_chunk_bytes = chunk_plan
            .chunks
            .iter()
            .map(|c| rehydrated_bytes(c.nnz, c.format_bytes))
            .max()
            .unwrap_or(0);
        let need = transient_bytes + max_chunk_bytes + 64;
        loop {
            match self.pools[ctx.device].make_room(ctx.key, need) {
                Ok(()) => break,
                Err(AdmitError::Defer { until_us }) => self.defer(ctx, until_us),
                Err(too_large @ AdmitError::TooLarge { working_set, .. }) => {
                    self.log_reject(ctx, working_set);
                    return Err(too_large.to_string());
                }
            }
        }
        self.log_event(ProtocolEvent::AdmitOk {
            request: ctx.id(),
            device: ctx.device,
            uploaded: true,
        });
        self.reserve(ctx, ctx.key, transient_bytes);
        // The chunked pipeline still pays the factor upload and at least
        // the certificate's whole-format kernel floor (the summed chunk
        // envelope dominates it — see `analyzer::cost`'s out-of-core
        // bounds), so the in-core lower bound stays sound here.
        let factor_us = self.transfer_us(factor_bytes_for(plan.fcoo(), ctx.request.rank));
        if self.deadline_gate(ctx, scheduler, &[factor_us, plan.certificate.time_lo_us]) {
            return Ok(None);
        }

        let op = ctx.key.op();
        let hosts = op_factors(
            &plan.fcoo().shape,
            op,
            ctx.request.rank,
            ctx.request.factor_seed,
        );
        let factor_bytes = matrix_bytes(&hosts);
        // Upload the factors once; they persist across every chunk.
        // Injected allocation failures and corruption retry like an
        // in-core attempt; exhausting the budget escapes to the host.
        let uploaded = self.attempt_ladder(ctx, Ladder::Chunk, |engine, ctx, _| {
            let uploaded = upload_factors(engine.devices[ctx.device].memory(), &hosts);
            let damage = engine.integrity_barrier(ctx);
            match uploaded {
                Ok(uploaded) if !damage.corrupted => Attempt::Accept(uploaded),
                Err(e) if !damage.injected_alloc && !damage.corrupted => {
                    Attempt::Fail(format!("transient allocation failed: {e}"))
                }
                _ => Attempt::Retry,
            }
        })?;
        // Dead time not yet charged to a stream stall (the host escape
        // charges it through its delayed placement instead).
        let mut unstalled_dead = ctx.take_dead();
        let Some((uploaded, _)) = uploaded else {
            return Ok(Some(self.escape_to_host(
                ctx,
                scheduler,
                label,
                unstalled_dead,
            )));
        };

        let device = ctx.device;
        let cfg = LaunchConfig::with_block_size(plan.block_size);
        let cols = ooc::output_cols(plan.fcoo(), &hosts);
        let mut acc = ooc::Accumulator::for_op(plan.fcoo(), cols);
        // Stage→stream mapping: with two streams H2D keeps its own stream
        // and kernel + D2H share one — the next chunk's upload still hides
        // behind the current kernel. (Sharing the *copy* stream instead
        // chains D2H before the next H2D and serializes the pipeline.)
        let resources: [usize; 3] = match scheduler.streams(device).max(1) {
            1 => [0, 0, 0],
            2 => [0, 1, 1],
            _ => [0, 1, 2],
        };
        let pipeline_ready = resources.iter().fold(ctx.ready, |t, &s| {
            t.max(scheduler.stream_available_us(device, s))
        });
        let mut builder = ooc::PipelineBuilder::new(pipeline_ready, resources);
        let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
        let mut launches = Vec::new();
        let (mut h2d_us_total, mut kernel_us_total, mut d2h_us_total) = (0.0f64, 0.0f64, 0.0f64);
        for desc in chunk_plan.chunks.iter() {
            let chunk = fcoo::extract(plan.fcoo(), desc);
            let chunk_bytes = rehydrated_bytes(chunk.nnz(), chunk.storage().total_bytes()) + 64;
            self.reserve(ctx, ctx.key, chunk_bytes);
            let seed = acc.seed_image(desc, &chunk);
            let accepted = self.attempt_ladder(ctx, Ladder::Chunk, |engine, ctx, tier| {
                engine.log_attempt_start(ctx, tier);
                let ran = ooc::run_chunk_format(
                    &engine.devices[ctx.device],
                    plan.kind(),
                    &chunk,
                    &refs,
                    &cfg,
                    &seed,
                );
                let attempt_launches = engine.drain_launches(ctx.device);
                let damage = engine.integrity_barrier(ctx);
                match ran {
                    Ok((out, stats)) if !damage.corrupted => {
                        Attempt::Accept((out, stats, attempt_launches))
                    }
                    // Genuine OOM: the chunk itself does not fit beside the
                    // transients — release everything and reject.
                    Err(e) if !damage.injected_alloc && !damage.corrupted => {
                        Attempt::Fail(format!("chunk {} allocation failed: {e}", desc.index))
                    }
                    _ => Attempt::Retry,
                }
            })?;
            let chunk_pending = ctx.pendings.pop().expect("the chunk's own reservation");
            // Dead time from failed attempts and short stalls.
            let chunk_dead = ctx.take_dead();
            let Some(((out, stats, attempt_launches), _)) = accepted else {
                // This chunk cannot be streamed: release its own
                // reservation (completed chunks stay committed) and
                // escape to the host tier.
                self.release(ctx, chunk_pending);
                unstalled_dead += chunk_dead;
                return Ok(Some(self.escape_to_host(
                    ctx,
                    scheduler,
                    label,
                    unstalled_dead,
                )));
            };
            acc.absorb(desc, &chunk, &out);
            launches.extend(attempt_launches);
            // Dead time occupies the kernel stage — and its real stream —
            // before the chunk's work.
            if chunk_dead > 0.0 {
                scheduler.stall_stream(device, resources[1], builder.stage_free_us(1), chunk_dead);
                builder.stall_stage(1, chunk_dead);
            }
            let h2d_us =
                self.transfer_us(chunk_bytes + if desc.index == 0 { factor_bytes } else { 0 });
            let d2h_us = self.transfer_us(acc.d2h_bytes(desc));
            let span = builder.push(ooc::StageTimes {
                h2d_us,
                kernel_us: stats.time_us,
                d2h_us,
            });
            scheduler.occupy_stream(device, resources[0], span.h2d.0, h2d_us);
            scheduler.occupy_stream(device, resources[1], span.kernel.0, stats.time_us);
            scheduler.occupy_stream(device, resources[2], span.d2h.0, d2h_us);
            h2d_us_total += h2d_us;
            kernel_us_total += stats.time_us;
            d2h_us_total += d2h_us;
            // Chunk-granular commit: this chunk's format bytes release at
            // its D2H end whether or not a later chunk faults.
            self.pools[device].commit(chunk_pending, span.d2h.1);
            self.log_event(ProtocolEvent::Commit {
                request: ctx.id(),
                device,
                finish_us: span.d2h.1,
            });
        }
        let timing = builder.finish();
        let slot = Slot::Pipelined {
            stream: resources[1],
            start_us: timing.start_us,
            finish_us: timing.finish_us(),
            exec_us: timing.makespan_us(),
        };
        let output = match op {
            TensorOp::SpTtm { mode } => {
                // Assemble the semi-sparse result exactly like the in-core
                // SpTTM wrapper: one fiber per segment, values from the
                // accumulated buffer.
                let fcoo = plan.fcoo();
                let mut result = SemiSparseTensor::new(fcoo.shape.clone(), mode, cols);
                let values = acc.values();
                for seg in 0..acc.rows() {
                    let coord: Vec<u32> = fcoo.segment_coords.iter().map(|c| c[seg]).collect();
                    result.push_fiber(&coord, &values[seg * cols..(seg + 1) * cols]);
                }
                JobOutput::Semi(result)
            }
            _ => JobOutput::Dense(DenseMatrix::from_vec(acc.rows(), cols, acc.into_values())),
        };
        let done = Completion {
            h2d_us: h2d_us_total,
            kernel_us: kernel_us_total,
            d2h_us: d2h_us_total,
            slot,
            launches,
            chunks: timing.chunks,
            chunk_streams: resources,
            ..Completion::queued(0.0, label, ExecTier::Unified, Keep::Result(output))
        };
        Ok(Some(self.complete(ctx, scheduler, done)))
    }

    /// The out-of-core escape hatch: a chunk (or the factor upload)
    /// exhausted its retry budget, so the whole request falls to the host
    /// tier. Completed chunks' reservations are already committed; the
    /// job-level reservation commits at the host result's finish time, so
    /// the pool still drains to zero.
    fn escape_to_host(
        &mut self,
        ctx: &mut RequestCtx,
        scheduler: &mut Scheduler,
        label: PlanLabel,
        dead_us: f64,
    ) -> RequestMetrics {
        self.degrade(ctx, ExecTier::Unified, ExecTier::Cpu);
        let tensor = self.tensor(ctx);
        let output = host_reference_output(
            tensor,
            ctx.key.op(),
            ctx.request.rank,
            ctx.request.factor_seed,
        );
        let done = Completion {
            kernel_us: cpu_reference_us(tensor.nnz(), ctx.request.rank, tensor.order()),
            ..Completion::queued(dead_us, label, ExecTier::Cpu, Keep::Result(output))
        };
        self.complete(ctx, scheduler, done)
    }

    /// Serves a CP-ALS request: one SpMTTKRP plan per mode through the plan
    /// cache, all formats admitted to the pool, the ALS loop run on the
    /// affinity device with a two-stream timeline (§V-E overlap).
    fn serve_cp(
        &mut self,
        index: usize,
        request: &Request,
        iterations: usize,
        scheduler: &mut Scheduler,
    ) -> Result<Option<RequestMetrics>, String> {
        if iterations == 0 {
            return Err("cp requests need at least one iteration".to_string());
        }
        let registered = self.registered(&request.tensor_id)?;
        let order = registered.tensor.order();
        let fingerprint = registered.fingerprint;
        let rank = request.rank;
        let keys: Vec<PlanKey> = (0..order)
            .map(|mode| PlanKey::new(fingerprint, TensorOp::SpMttkrp { mode }, rank))
            .collect();
        let device = self.route_device(keys[0].digest(), scheduler);
        let registered = &self.tensors[&request.tensor_id];
        let (plans, sources): (Vec<Arc<Plan>>, Vec<PlanSource>) = keys
            .iter()
            .map(|&key| {
                self.plans
                    .get_or_build(key, &registered.tensor, &self.scratch)
            })
            .unzip();
        let mut ctx = RequestCtx::new(index, request, keys[0], device);
        self.pools[device].retire(ctx.ready);
        // All per-mode factors and the largest MTTKRP output live on device
        // for the whole decomposition. The transient budget rides on the
        // first mode's admission; the remaining modes only need their
        // formats resident.
        let factor_bytes: usize = self
            .tensor(&ctx)
            .shape()
            .iter()
            .map(|&s| s * rank * 4)
            .sum();
        let transient_bytes = 2 * factor_bytes + 1024 * order;
        let transient = |i: usize| if i == 0 { transient_bytes } else { 0 };
        let mut uploaded_bytes = 0usize;
        let mut formats = Vec::with_capacity(order);
        for (i, plan) in plans.iter().enumerate() {
            let admitted = self.admit_or_reject(
                &mut ctx,
                keys[i],
                &plan.format,
                plan.format_bytes(),
                transient(i),
            )?;
            if admitted.uploaded {
                uploaded_bytes += plan.format_bytes();
            }
            formats.push(admitted.format);
        }
        // Pending reservations pin the per-mode formats across attempts.
        for (i, &key) in keys.iter().enumerate() {
            self.reserve(&mut ctx, key, transient(i));
        }
        // Lower bound for a decomposition: the initial factor upload and
        // one ALS sweep at each mode's certified kernel-time floor (at
        // least one iteration always runs).
        let factor_us = self.transfer_us(factor_bytes);
        let sweep_lo: f64 = plans.iter().map(|p| p.certificate.time_lo_us).sum();
        if self.deadline_gate(&mut ctx, scheduler, &[factor_us, sweep_lo]) {
            return Ok(None);
        }
        let block_size = plans[0].block_size;
        let format_refs: Vec<&AnyFormatDevice> = formats.iter().map(Arc::as_ref).collect();
        let opts = cp_options(rank, iterations, request.factor_seed);
        // A corrupted iteration taints the whole decomposition: the ladder
        // discards and retries the full ALS loop.
        let ((output, gpu_us, launches), tier) = self
            .attempt_ladder(&mut ctx, Ladder::Cp, |engine, ctx, tier| {
                engine.log_attempt_start(ctx, tier);
                let tensor = engine.tensor(ctx);
                let (output, us) = match tier {
                    ExecTier::Cpu => run_host_cp(tensor, &opts),
                    _ => run_planned_cp(
                        &engine.devices[ctx.device],
                        &format_refs,
                        block_size,
                        tensor,
                        &opts,
                    ),
                };
                let launches = engine.drain_launches(ctx.device);
                if tier != ExecTier::Cpu && engine.integrity_barrier(ctx).corrupted {
                    return Attempt::Retry;
                }
                Attempt::Accept((output, us, launches))
            })?
            .expect("the CP ladder ends on the host tier");
        // Transfers: formats uploaded this admission, the initial factors
        // up, the final factors down (the host tier moves no factors).
        let (h2d_bytes, d2h_us) = if tier == ExecTier::Cpu {
            (uploaded_bytes, 0.0)
        } else {
            (
                uploaded_bytes + factor_bytes,
                self.transfer_us(output.bytes()),
            )
        };
        let label = PlanLabel::of(&plans[0], worst_source(&sources));
        let keep = Keep::Cp {
            iterations,
            threadlens: plans.iter().map(|p| p.threadlen()).collect(),
            output,
        };
        let done = Completion {
            h2d_us: self.transfer_us(h2d_bytes),
            kernel_us: gpu_us,
            d2h_us,
            launches,
            ..Completion::queued(ctx.recovery_us, label, tier, keep)
        };
        Ok(Some(self.complete(&mut ctx, scheduler, done)))
    }

    fn tensor(&self, ctx: &RequestCtx) -> &SparseTensorCoo {
        &self.tensors[&ctx.request.tensor_id].tensor
    }

    /// Runs one attempt of the request's op on the requested degradation-
    /// ladder tier. Returns the output, the simulated kernel time, and the
    /// factor upload bytes.
    fn execute_tier(
        &self,
        ctx: &RequestCtx,
        tier: ExecTier,
        format: &AnyFormatDevice,
        plan: &Plan,
    ) -> Result<(JobOutput, f64, usize), String> {
        let tensor = self.tensor(ctx);
        let op = ctx.key.op();
        let rank = ctx.request.rank;
        let cfg = LaunchConfig::with_block_size(plan.block_size);
        let hosts = || op_factors(tensor.shape(), op, rank, ctx.request.factor_seed);
        match tier {
            ExecTier::Unified => {
                let device = &self.devices[ctx.device];
                let oom = |e: gpu_sim::OutOfMemory| format!("transient allocation failed: {e}");
                let hosts = hosts();
                let factors = upload_factors(device.memory(), &hosts).map_err(oom)?;
                let (output, kernel_us) =
                    launch_op(device, format, op, &factors, &cfg).map_err(oom)?;
                Ok((output, kernel_us, matrix_bytes(&hosts)))
            }
            // The two-step fallback (Fig. 3a): SpTTM then a second unified
            // launch, on the same (faulted) device — still covered by the
            // integrity barrier. SpMTTKRP on 3-order tensors only.
            ExecTier::TwoStep => {
                let TensorOp::SpMttkrp { mode } = op else {
                    return Err("two-step fallback only covers SpMTTKRP".to_string());
                };
                if tensor.order() != 3 {
                    return Err("two-step fallback is 3-order only".to_string());
                }
                let hosts = hosts();
                let refs: Vec<&DenseMatrix> = hosts.iter().collect();
                let outcome = fcoo::spmttkrp_two_step_unified(
                    &self.devices[ctx.device],
                    tensor,
                    mode,
                    &refs,
                    plan.threadlen(),
                    &cfg,
                )
                .map_err(|e| format!("two-step allocation failed: {e}"))?;
                Ok((
                    JobOutput::Dense(outcome.result),
                    outcome.stats.time_us,
                    matrix_bytes(&hosts),
                ))
            }
            // The last rung: sequential host reference with analytic
            // timing. Never touches a device, so it cannot fault — the
            // ladder always terminates.
            ExecTier::Cpu => Ok((
                host_reference_output(tensor, op, rank, ctx.request.factor_seed),
                cpu_reference_us(tensor.nnz(), rank, tensor.order()),
                0,
            )),
        }
    }

    /// Re-runs every cached unique result (single ops and CP-ALS jobs)
    /// through the one-shot API on a fresh device and compares bit-exactly.
    /// Returns `(checked, mismatches)`.
    fn verify_results(&self) -> (usize, usize) {
        let mut checked = 0;
        let mut failures = 0;
        // References re-run on an unconstrained fresh device: capacity gates
        // only allocation success, never result bits, and an out-of-core
        // request's format deliberately exceeds the serving capacity.
        let reference_config = DeviceConfig {
            memory_capacity: usize::MAX / 2,
            ..self.config.device_config.clone()
        };
        for ((key, factor_seed), cached) in &self.results {
            let Some((_, registered)) = self
                .tensors
                .iter()
                .find(|(_, r)| r.fingerprint == key.fingerprint)
            else {
                continue;
            };
            let Some(plan) = self.plans.peek(*key) else {
                continue;
            };
            let reference = one_shot_tier_reference(
                &reference_config,
                &registered.tensor,
                key.op(),
                key.rank as usize,
                *factor_seed,
                plan.threadlen(),
                plan.block_size,
                cached.tier,
            );
            checked += 1;
            match reference {
                Some(reference) if reference == cached.output => {}
                _ => failures += 1,
            }
        }
        for exec in &self.cp_executions {
            let Some(registered) = self.tensors.get(&exec.tensor_id) else {
                continue;
            };
            let reference = match exec.tier {
                ExecTier::Cpu => {
                    let opts = cp_options(exec.rank, exec.iterations, exec.factor_seed);
                    Some(run_host_cp(&registered.tensor, &opts).0)
                }
                _ => one_shot_cp_reference(
                    &reference_config,
                    &registered.tensor,
                    exec.rank,
                    exec.iterations,
                    exec.factor_seed,
                    &exec.threadlens,
                    exec.block_size,
                ),
            };
            checked += 1;
            match reference {
                Some(reference) if reference == exec.output => {}
                _ => failures += 1,
            }
        }
        (checked, failures)
    }
}

/// Bytes of the dense factor matrices a request must move host→device
/// before its kernel can start — the transfer term of the certified
/// completion-time lower bound the deadline shedder uses.
fn factor_bytes_for(fcoo: &Fcoo, rank: usize) -> usize {
    fcoo.op
        .factor_modes(fcoo.shape.len())
        .into_iter()
        .map(|m| fcoo.shape[m] * rank * 4)
        .sum()
}

/// Device bytes a request holds beyond its cached format: uploaded factor
/// matrices plus the kernel's output buffer.
fn transient_bytes_for(fcoo: &Fcoo, rank: usize) -> usize {
    let mode = fcoo.op.mode();
    let shape = &fcoo.shape;
    let factor_bytes: usize = factor_bytes_for(fcoo, rank);
    let output_bytes = match fcoo.op {
        TensorOp::SpTtm { .. } => fcoo.segments() * rank * 4,
        TensorOp::SpMttkrp { .. } => shape[mode] * rank * 4,
        TensorOp::SpTtmc { .. } => shape[mode] * rank.pow((shape.len() - 1) as u32) * 4,
    };
    // Per-buffer allocator slack (virtual base alignment).
    factor_bytes + output_bytes + 1024
}

/// CP-ALS MTTKRP engine over pre-admitted per-mode formats: one unified
/// kernel per mode per iteration, dense updates on a second stream (§V-E).
struct PlannedCpEngine<'a> {
    device: &'a GpuDevice,
    formats: &'a [&'a AnyFormatDevice],
    cfg: LaunchConfig,
    timeline: Timeline,
    last_mttkrp_finish: f64,
}

impl MttkrpEngine for PlannedCpEngine<'_> {
    fn mttkrp(&mut self, mode: usize, factors: &[DenseMatrix]) -> (DenseMatrix, f64) {
        // Admission control sized the device for CP factors, so an
        // `OutOfMemory` here is an *injected* allocation failure. Bounded
        // retries keep the ALS loop alive; the serving engine's integrity
        // barrier still discards the decomposition if anything corrupted it.
        let mut last_err = None;
        for _ in 0..8 {
            let uploaded: Result<Vec<DeviceMatrix>, _> = factors
                .iter()
                .map(|f| DeviceMatrix::upload(self.device.memory(), f))
                .collect();
            let uploaded = match uploaded {
                Ok(u) => u,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            };
            let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
            match self.formats[mode].spmttkrp(self.device, &refs, &self.cfg) {
                Ok((result, stats)) => {
                    self.last_mttkrp_finish = self.timeline.push(0, stats.time_us);
                    return (result, stats.time_us);
                }
                Err(e) => last_err = Some(e),
            }
        }
        panic!("admission control sized the device for CP work: {last_err:?}");
    }

    fn dense_update_us(&mut self, rows: usize, rank: usize) -> Option<f64> {
        // Same CUBLAS-style model as `decomp::engines::UnifiedGpuEngine`:
        // Gram products overlap the MTTKRP on stream 1; the solve waits.
        let config = self.device.config();
        let peak_flops_per_us = config.total_cores() as f64 * 2.0 * config.clock_ghz * 1e3;
        let effective = 0.1 * peak_flops_per_us;
        let gram_flops = 2.0 * rows as f64 * (rank * rank) as f64;
        let gram_us = gram_flops / effective + 2.0 * config.launch_overhead_us;
        let solve_us = (rank * rank * rank) as f64 / effective + config.launch_overhead_us;
        self.timeline.push(1, gram_us);
        self.timeline
            .push_after(1, self.last_mttkrp_finish, solve_us);
        Some(gram_us + solve_us)
    }

    fn overlapped_elapsed_us(&self) -> Option<f64> {
        Some(self.timeline.elapsed_us())
    }

    fn name(&self) -> &'static str {
        "serve-planned"
    }
}

/// Runs CP-ALS over pre-resolved per-mode formats; returns the factor model
/// and the two-stream GPU makespan in microseconds.
fn run_planned_cp(
    device: &GpuDevice,
    formats: &[&AnyFormatDevice],
    block_size: usize,
    tensor: &SparseTensorCoo,
    opts: &CpOptions,
) -> (JobOutput, f64) {
    let mut engine = PlannedCpEngine {
        device,
        formats,
        cfg: LaunchConfig::with_block_size(block_size),
        timeline: Timeline::new(2),
        last_mttkrp_finish: 0.0,
    };
    let run = cp_als(tensor, &mut engine, opts);
    let gpu_us = run.overlapped_total_us.unwrap_or_else(|| run.total_us());
    (
        JobOutput::Cp {
            factors: run.model.factors,
            lambda: run.model.lambda,
        },
        gpu_us,
    )
}

/// The ALS options of a served decomposition (and of its references).
fn cp_options(rank: usize, iterations: usize, factor_seed: u64) -> CpOptions {
    CpOptions {
        rank,
        max_iters: iterations,
        tol: 1e-5,
        seed: factor_seed,
    }
}

/// Sequential host MTTKRP engine with the analytic timing model — the CP
/// ladder's last rung. It never touches a device (so it cannot fault) and
/// never reads the wall clock (so reports stay deterministic).
struct HostCpEngine<'a> {
    tensor: &'a SparseTensorCoo,
    elapsed_us: f64,
}

impl MttkrpEngine for HostCpEngine<'_> {
    fn mttkrp(&mut self, mode: usize, factors: &[DenseMatrix]) -> (DenseMatrix, f64) {
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let result = tensor_core::ops::spmttkrp(self.tensor, mode, &refs);
        let us = cpu_reference_us(self.tensor.nnz(), result.cols(), self.tensor.order());
        self.elapsed_us += us;
        (result, us)
    }

    fn dense_update_us(&mut self, rows: usize, rank: usize) -> Option<f64> {
        // Gram products + solve at the same analytic 2 GFLOP/s host rate.
        let flops = 2.0 * rows as f64 * (rank * rank) as f64 + (rank * rank * rank) as f64;
        let us = flops / 2000.0;
        self.elapsed_us += us;
        Some(us)
    }

    fn overlapped_elapsed_us(&self) -> Option<f64> {
        Some(self.elapsed_us)
    }

    fn name(&self) -> &'static str {
        "serve-host"
    }
}

/// Runs CP-ALS entirely on the host; returns the factor model and the
/// analytic host makespan in microseconds.
fn run_host_cp(tensor: &SparseTensorCoo, opts: &CpOptions) -> (JobOutput, f64) {
    let mut engine = HostCpEngine {
        tensor,
        elapsed_us: 0.0,
    };
    let run = cp_als(tensor, &mut engine, opts);
    let host_us = run.overlapped_total_us.unwrap_or_else(|| run.total_us());
    (
        JobOutput::Cp {
            factors: run.model.factors,
            lambda: run.model.lambda,
        },
        host_us,
    )
}

/// Computes the request's result the same way the given ladder tier would,
/// on fresh fault-free resources: the verification reference for a served
/// result. Tiers are *not* bit-exact with each other, so each result must be
/// checked against a clean re-execution of its own tier.
#[allow(clippy::too_many_arguments)]
pub fn one_shot_tier_reference(
    device_config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    op: TensorOp,
    rank: usize,
    factor_seed: u64,
    threadlen: usize,
    block_size: usize,
    tier: ExecTier,
) -> Option<JobOutput> {
    match tier {
        ExecTier::Unified => one_shot_reference(
            device_config,
            tensor,
            op,
            rank,
            factor_seed,
            threadlen,
            block_size,
        ),
        ExecTier::TwoStep => {
            let TensorOp::SpMttkrp { mode } = op else {
                return None;
            };
            let device = GpuDevice::new(device_config.clone());
            let hosts = op_factors(tensor.shape(), op, rank, factor_seed);
            let refs: Vec<&DenseMatrix> = hosts.iter().collect();
            let cfg = LaunchConfig::with_block_size(block_size);
            let outcome =
                fcoo::spmttkrp_two_step_unified(&device, tensor, mode, &refs, threadlen, &cfg)
                    .ok()?;
            Some(JobOutput::Dense(outcome.result))
        }
        ExecTier::Cpu => Some(host_reference_output(tensor, op, rank, factor_seed)),
    }
}

/// Computes the request's result through the one-shot API: fresh device,
/// F-COO rebuilt from the raw tensor (independently of any cached plan),
/// identical launch shape and factor seeds. The serving path must match
/// this bit for bit.
pub fn one_shot_reference(
    device_config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    op: TensorOp,
    rank: usize,
    factor_seed: u64,
    threadlen: usize,
    block_size: usize,
) -> Option<JobOutput> {
    let device = GpuDevice::new(device_config.clone());
    let fcoo = Fcoo::from_coo(tensor, op, threadlen);
    let format = AnyFormatDevice::Fcoo(FcooDevice::upload(device.memory(), &fcoo).ok()?);
    let hosts = op_factors(tensor.shape(), op, rank, factor_seed);
    let factors = upload_factors(device.memory(), &hosts).ok()?;
    let cfg = LaunchConfig::with_block_size(block_size);
    let (output, _) = launch_op(&device, &format, op, &factors, &cfg).ok()?;
    Some(output)
}

/// CP-ALS through the one-shot API: fresh device, per-mode F-COO rebuilt
/// from the raw tensor with the same threadlens and block size the serving
/// plans used, identical ALS options. Must match the served job bit for bit.
pub fn one_shot_cp_reference(
    device_config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    rank: usize,
    iterations: usize,
    factor_seed: u64,
    threadlens: &[usize],
    block_size: usize,
) -> Option<JobOutput> {
    let device = GpuDevice::new(device_config.clone());
    let fcoos: Vec<Fcoo> = (0..tensor.order())
        .map(|mode| Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode }, threadlens[mode]))
        .collect();
    let formats: Vec<AnyFormatDevice> = fcoos
        .iter()
        .map(|f| FcooDevice::upload(device.memory(), f).map(AnyFormatDevice::Fcoo))
        .collect::<Result<_, _>>()
        .ok()?;
    let format_refs: Vec<&AnyFormatDevice> = formats.iter().collect();
    let opts = cp_options(rank, iterations, factor_seed);
    let (output, _) = run_planned_cp(&device, &format_refs, block_size, tensor, &opts);
    Some(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn small_workload_end_to_end() {
        let w = workload::synthetic(40, 11);
        let mut engine = ServeEngine::new(ServeConfig {
            verify: true,
            ..ServeConfig::default()
        });
        let report = engine.run(&w);
        assert_eq!(report.requests.len() + report.rejections.len(), 40);
        assert!(report.rejections.is_empty(), "{:?}", report.rejections);
        assert_eq!(report.plan_stats.builds, 8, "4 tensors × 2 ops");
        assert!(report.hit_rate() > 0.5);
        assert!(report.verified > 0);
        assert_eq!(report.verify_failures, 0);
        assert!(report.makespan_us > 0.0);
        let rendered = report.render();
        assert!(rendered.contains("hit rate"), "{rendered}");
        assert!(rendered.contains("p99"), "{rendered}");
    }

    #[test]
    fn batching_reuses_results() {
        let mut w = workload::synthetic(1, 3);
        let first = w.requests[0].clone();
        for i in 1..6 {
            let mut r = first.clone();
            r.arrival_us += i as f64 * 10.0;
            w.requests.push(r);
        }
        let mut engine = ServeEngine::new(ServeConfig::default());
        let report = engine.run(&w);
        assert_eq!(report.batched, 5, "identical requests batch");
        let full = &report.requests[0];
        let reused = &report.requests[1];
        assert!(reused.exec_us < full.exec_us);
        assert_eq!(full.checksum, reused.checksum);
    }

    #[test]
    fn second_run_hits_memory_plans() {
        let w = workload::synthetic(20, 5);
        let mut engine = ServeEngine::new(ServeConfig::default());
        let first = engine.run(&w);
        assert!(first.plan_stats.builds > 0);
        let second = engine.run(&w);
        // Same engine: no new builds, pure memory hits.
        assert_eq!(second.plan_stats.builds, first.plan_stats.builds);
        assert!(second.plan_stats.memory_hits > first.plan_stats.memory_hits);
    }

    #[test]
    fn unknown_tensors_are_rejected_not_panicked() {
        let w = Workload::parse("request ghost mttkrp 0 8 0.0 1\n").unwrap();
        let mut engine = ServeEngine::new(ServeConfig::default());
        let report = engine.run(&w);
        assert!(report.requests.is_empty());
        assert_eq!(report.rejections.len(), 1);
        assert!(report.rejections[0].reason.contains("unknown tensor"));
        let bad_mode =
            Workload::parse("tensor t nell2 600 3\nrequest t mttkrp 7 8 0.0 1\n").unwrap();
        let report = engine.run(&bad_mode);
        assert_eq!(report.rejections.len(), 1);
        assert!(report.rejections[0].reason.contains("out of range"));
    }

    #[test]
    fn profiling_observes_without_perturbing() {
        let w = workload::synthetic(30, 13);
        let plain = ServeEngine::new(ServeConfig::default()).run(&w);
        let profiled = ServeEngine::new(ServeConfig {
            profile: true,
            ..ServeConfig::default()
        })
        .run(&w);
        assert_eq!(plain.requests, profiled.requests);
        assert_eq!(plain.makespan_us.to_bits(), profiled.makespan_us.to_bits());
        assert!(plain.profile.is_none());
        let profile = profiled.profile.expect("profile requested");
        assert_eq!(profile.requests.len(), profiled.requests.len());
        assert!(profile.event_count() > 0);
        assert!(!profile.kernels.is_empty());
        for (m, p) in profiled.requests.iter().zip(&profile.requests) {
            assert_eq!(m.index, p.index);
            assert_eq!(m.start_us.to_bits(), p.start_us.to_bits());
            assert_eq!(m.finish_us.to_bits(), p.finish_us.to_bits());
            assert!((p.h2d_us + p.kernel_us + p.d2h_us - m.exec_us).abs() < 1e-9);
            assert_eq!(m.batched, p.batched);
            if !p.batched && p.tier != ExecTier::Cpu {
                assert!(
                    !p.launches.is_empty(),
                    "request {} traced no launches",
                    m.index
                );
            }
        }
        let report = profile.counter_report();
        assert!(report.contains("kernel counters"), "{report}");
        let trace = profile.chrome_trace();
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        assert!(trace.to_json().contains("\"traceEvents\""));
    }

    #[test]
    fn cp_requests_run_and_verify() {
        let text = "tensor t nell2 900 3\n\
                    request t cp 3 4 0.0 21\n\
                    request t mttkrp 0 4 500.0 22\n";
        let w = Workload::parse(text).unwrap();
        let mut engine = ServeEngine::new(ServeConfig {
            verify: true,
            ..ServeConfig::default()
        });
        let report = engine.run(&w);
        assert!(report.rejections.is_empty(), "{:?}", report.rejections);
        assert_eq!(report.requests.len(), 2);
        // The CP job warmed the mode-0 SpMTTKRP plan for the later request.
        assert_eq!(report.requests[1].plan_source, PlanSource::Memory);
        assert!(report.verified >= 2);
        assert_eq!(report.verify_failures, 0);
        // CP requests are never batched; zero iterations are rejected.
        let zero = Workload::parse("tensor t nell2 900 3\nrequest t cp 0 4 0.0 1\n").unwrap();
        let report = engine.run(&zero);
        assert_eq!(report.rejections.len(), 1);
    }
}
