//! Out-of-core chunked execution for F-COO tensors larger than device
//! memory.
//!
//! The paper's FROSTT-scale workloads do not fit a single device's pool;
//! this crate streams them. [`fcoo::chunk`] splits a format into
//! partition-aligned chunks sized to a byte budget; [`executor`] runs the
//! chunks through the unchanged unified kernels with carry-row seeding so
//! the accumulated output is **bit-exact** with the in-core path; and
//! [`pipeline`] resolves the deterministic 3-stream schedule (H2D of chunk
//! `k+1` under the kernel of chunk `k` under the D2H of chunk `k−1`) whose
//! makespan and overlap efficiency the serve layer and `tensortool
//! oocbench` report.
//!
//! The execution path deliberately depends only on
//! `fcoo`/`gpu-sim`/`tensor-core`: the serve engine composes these pieces
//! with its own admission, reservation and fault machinery
//! (`crates/serve`), and the bench CLI drives them standalone. On top of
//! it, [`bound`] pulls in the analyzer's cost interpreter to certify a
//! whole-pipeline counter envelope for any chunk plan before it runs —
//! the bound `tensortool oocbench` checks every streamed execution
//! against. [`multi`] places the same chunk plans across several devices
//! instead of across time.

#![warn(missing_docs)]

pub mod bound;
pub mod executor;
pub mod multi;
pub mod pipeline;

pub use bound::{check_run, pipeline_envelope, pipeline_envelope_format};
pub use executor::{
    output_cols, run_chunk_format, run_chunked_format, Accumulator, ChunkReport, ChunkedRun,
};
pub use fcoo::chunk::{extract, split, ChunkDescriptor, ChunkPlan};
pub use multi::{spmttkrp_multi_gpu, MultiGpuStats};
pub use pipeline::{
    schedule, schedule_on, ChunkSchedule, PipelineBuilder, PipelineTiming, StageTimes,
};
