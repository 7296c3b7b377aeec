//! A tiny object-file format (`.ubin`) for assembled programs: the
//! fixed-width instruction encoding of [`mod@crate::encode`] plus the
//! initial register/memory images, with a magic header and length
//! checks so corrupted files are rejected rather than misread.
//!
//! Layout (all little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "USCLR\0\0\1"
//! 8       4     num_regs (u32)
//! 12      4     instruction count (u32)
//! 16      4     init_mem word count (u32)
//! 20      4     reserved (0)
//! 24      8·ni  instructions (u64 each, crate::encode)
//! …       4·nr  init_regs (u32 each, num_regs entries)
//! …       4·nm  init_mem  (u32 each)
//! ```

use crate::encode::{decode, encode};
use crate::program::Program;

const MAGIC: [u8; 8] = *b"USCLR\0\0\x01";

/// Errors from [`read_binary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// The header magic is wrong (not a `.ubin` or wrong version).
    BadMagic,
    /// The file is shorter than its header promises.
    Truncated,
    /// Trailing bytes after the promised content.
    TrailingBytes(usize),
    /// An instruction word failed to decode.
    BadInstruction {
        /// Instruction index.
        at: usize,
        /// Decoder message.
        msg: String,
    },
    /// The decoded program failed validation.
    Invalid(String),
}

impl std::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryError::BadMagic => write!(f, "not a .ubin file (bad magic)"),
            BinaryError::Truncated => write!(f, "file truncated"),
            BinaryError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            BinaryError::BadInstruction { at, msg } => {
                write!(f, "instruction {at}: {msg}")
            }
            BinaryError::Invalid(m) => write!(f, "invalid program: {m}"),
        }
    }
}

impl std::error::Error for BinaryError {}

/// Serialise a program to the `.ubin` byte format.
pub fn write_binary(p: &Program) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(24 + 8 * p.instrs.len() + 4 * p.init_regs.len() + 4 * p.init_mem.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(p.num_regs as u32).to_le_bytes());
    out.extend_from_slice(&(p.instrs.len() as u32).to_le_bytes());
    out.extend_from_slice(&(p.init_mem.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for i in &p.instrs {
        out.extend_from_slice(&encode(i).to_le_bytes());
    }
    for r in &p.init_regs {
        out.extend_from_slice(&r.to_le_bytes());
    }
    for w in &p.init_mem {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Deserialise and validate a `.ubin` byte stream.
pub fn read_binary(bytes: &[u8]) -> Result<Program, BinaryError> {
    if bytes.len() < 24 {
        return Err(if bytes.starts_with(&MAGIC) || bytes.len() < 8 {
            BinaryError::Truncated
        } else {
            BinaryError::BadMagic
        });
    }
    if bytes[..8] != MAGIC {
        return Err(BinaryError::BadMagic);
    }
    let u32_at = |off: usize| -> u32 {
        u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
    };
    let num_regs = u32_at(8) as usize;
    let ni = u32_at(12) as usize;
    let nm = u32_at(16) as usize;
    let need = 24 + 8 * ni + 4 * num_regs + 4 * nm;
    if bytes.len() < need {
        return Err(BinaryError::Truncated);
    }
    if bytes.len() > need {
        return Err(BinaryError::TrailingBytes(bytes.len() - need));
    }
    let mut instrs = Vec::with_capacity(ni);
    for k in 0..ni {
        let off = 24 + 8 * k;
        let w = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        instrs.push(decode(w).map_err(|e| BinaryError::BadInstruction {
            at: k,
            msg: e.to_string(),
        })?);
    }
    let regs_off = 24 + 8 * ni;
    let init_regs: Vec<u32> = (0..num_regs).map(|k| u32_at(regs_off + 4 * k)).collect();
    let mem_off = regs_off + 4 * num_regs;
    let init_mem: Vec<u32> = (0..nm).map(|k| u32_at(mem_off + 4 * k)).collect();
    let program = Program {
        instrs,
        num_regs,
        init_regs,
        init_mem,
    };
    program
        .validate()
        .map_err(|e| BinaryError::Invalid(e.to_string()))?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn roundtrip_every_suite_kernel() {
        for (name, p) in workload::standard_suite(5) {
            let bytes = write_binary(&p);
            let back = read_binary(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p, back, "{name}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let p = workload::fibonacci(5);
        let mut bytes = write_binary(&p);
        bytes[0] = b'X';
        assert_eq!(read_binary(&bytes), Err(BinaryError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let p = workload::fibonacci(5);
        let bytes = write_binary(&p);
        for cut in [4usize, 12, 30, bytes.len() - 1] {
            assert!(
                matches!(
                    read_binary(&bytes[..cut]),
                    Err(BinaryError::Truncated | BinaryError::BadMagic)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let p = workload::fibonacci(5);
        let mut bytes = write_binary(&p);
        bytes.push(0);
        assert_eq!(read_binary(&bytes), Err(BinaryError::TrailingBytes(1)));
    }

    #[test]
    fn corrupt_instruction_rejected() {
        let p = workload::fibonacci(5);
        let mut bytes = write_binary(&p);
        bytes[24 + 7] = 0xFF; // smash the first opcode byte
        assert!(matches!(
            read_binary(&bytes),
            Err(BinaryError::BadInstruction { at: 0, .. })
        ));
    }

    #[test]
    fn empty_program_roundtrips() {
        let p = crate::program::Program::new(vec![], 4);
        assert_eq!(read_binary(&write_binary(&p)), Ok(p));
    }
}

#[cfg(test)]
mod random_tests {
    use super::*;
    use rand::{cases, Rng};

    /// The reader never panics on arbitrary bytes.
    #[test]
    fn reader_is_total() {
        cases(0xB1_0001, 64, |rng, _| {
            let bytes: Vec<u8> = (0..rng.gen_range(0..512)).map(|_| rng.gen()).collect();
            let _ = read_binary(&bytes);
        });
    }

    /// Random programs round-trip.
    #[test]
    fn random_programs_roundtrip() {
        cases(0xB1_0002, 64, |rng, _| {
            let p = crate::workload::random_program(&crate::workload::RandomCfg {
                seed: rng.gen_range(0..10_000),
                len: 60,
                ..Default::default()
            });
            assert_eq!(read_binary(&write_binary(&p)), Ok(p));
        });
    }
}
