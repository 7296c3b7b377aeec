//! The RISC instruction-set architecture used by the Ultrascalar
//! reproduction.
//!
//! The paper (§7) evaluates "a very simple RISC instruction set
//! architecture \[with\] 32 32-bit logical registers … no floating point
//! … each instruction reads at most two registers and writes at most
//! one". This crate implements that ISA completely and owns its
//! architectural state, data memory included; `ultrascalar-memsys`
//! only models the timing of reaching that memory:
//!
//! * [`instr`] — the instruction forms, their operand/result register
//!   sets (statically guaranteed ≤ 2 reads, ≤ 1 write), and execution
//!   semantics on 32-bit words;
//! * [`encode`](mod@encode) — a fixed-width binary encoding with full
//!   round-tripping;
//! * [`asm`] — a small two-pass assembler (labels, comments) and a
//!   disassembler;
//! * [`cache`] — a content-hash-keyed LRU cache of assembled programs,
//!   so serving mode re-runs a repeated source without re-assembling;
//! * [`lru`] — serving mode's one cache shape, a counted linear-scan
//!   LRU, which the program cache and the core crate's engine pool share;
//! * [`program`] — the [`program::Program`] container shared by every
//!   processor model;
//! * [`image`] — architectural data memory: the sizing and
//!   wrap-around rules every model shares, and [`MemImage`], a dense
//!   image that tracks which 64-word pages may be nonzero, so
//!   rewinding, copying and comparing one costs the pages a run
//!   touched rather than the whole memory;
//! * [`interp`] — the *golden* sequential interpreter: the architectural
//!   oracle that every Ultrascalar model must match instruction for
//!   instruction;
//! * [`workload`] — program generators: the paper's Figure 1 example
//!   sequence, dependency-controlled random kernels, and a set of small
//!   realistic kernels (dot product, memcpy, Fibonacci, pointer chase,
//!   matrix–vector product, bubble sort, …).
//!
//! The number of logical registers `L` is a *parameter* throughout the
//! reproduction (the paper scales it from 8 to 64); the ISA supports
//! 1 ≤ L ≤ 256 and each [`program::Program`] records the `L` it was
//! compiled for.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod binary;
pub mod cache;
pub mod encode;
pub mod image;
pub mod instr;
pub mod interp;
pub mod lru;
pub mod program;
pub mod workload;

pub use asm::{assemble, disassemble, AsmError};
pub use binary::{read_binary, write_binary, BinaryError};
pub use cache::ShardedProgramCache;
pub use encode::{decode, encode, DecodeError};
pub use image::{effective_addr, mem_words, wrap, MemImage};
pub use instr::{AluOp, BranchCond, Instr, Reg};
pub use interp::{ExecRecord, Interp, RunOutcome};
pub use lru::{LruStats, Shards};
pub use program::Program;
