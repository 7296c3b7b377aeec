//! A small two-pass assembler and a disassembler.
//!
//! Syntax (one instruction or label per line; `;` and `#` start
//! comments):
//!
//! ```text
//! start:
//!     li   r1, 10          ; load immediate
//!     addi r2, r1, 5       ; register-immediate ALU
//!     add  r3, r1, r2      ; three-register ALU
//!     lw   r4, 8(r3)       ; load word,  rd, offset(base)
//!     sw   r4, -4(r3)      ; store word, src, offset(base)
//!     beq  r1, r2, done    ; branch to label (or absolute index)
//!     j    start
//! done:
//!     halt
//! ```
//!
//! ALU mnemonics: `add sub and or xor sll srl sra slt sltu mul div rem`
//! plus their `…i` immediate forms. Branches: `beq bne blt bge bltu
//! bgeu`. Also `nop`, `halt`, `li`, `lw`, `sw`, `j`.
//!
//! Data directives initialise machine state without executing code:
//!
//! ```text
//! .org  16            ; next .word lands at word address 16
//! .word 3, 5, 8, 13   ; initial data memory, consecutive words
//! .reg  r2, 42        ; initial register value
//! ```

use std::collections::HashMap;

use crate::instr::{AluOp, BranchCond, Instr, Reg};
use crate::program::Program;

/// Assembly error with a 1-based source line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line in the source text.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError {
        line,
        msg: msg.into(),
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let rest = tok
        .strip_prefix('r')
        .or_else(|| tok.strip_prefix('R'))
        .ok_or_else(|| err(line, format!("expected register, got `{tok}`")))?;
    let idx: u16 = rest
        .parse()
        .map_err(|_| err(line, format!("bad register `{tok}`")))?;
    if idx > 255 {
        return Err(err(line, format!("register index {idx} exceeds 255")));
    }
    Ok(Reg(idx as u8))
}

fn parse_imm(tok: &str, line: usize) -> Result<i32, AsmError> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, tok),
    };
    let v: i64 = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).map_err(|_| err(line, format!("bad immediate `{tok}`")))?
    } else {
        body.parse()
            .map_err(|_| err(line, format!("bad immediate `{tok}`")))?
    };
    let v = if neg { -v } else { v };
    i32::try_from(v).map_err(|_| err(line, format!("immediate `{tok}` out of i32 range")))
}

/// Parse `offset(base)`, e.g. `8(r2)` or `-4(r0)`.
fn parse_mem_operand(tok: &str, line: usize) -> Result<(i32, Reg), AsmError> {
    let open = tok
        .find('(')
        .ok_or_else(|| err(line, format!("expected `offset(base)`, got `{tok}`")))?;
    let close = tok
        .strip_suffix(')')
        .ok_or_else(|| err(line, format!("missing `)` in `{tok}`")))?;
    let off_str = &tok[..open];
    let base_str = &close[open + 1..];
    let offset = if off_str.is_empty() {
        0
    } else {
        parse_imm(off_str, line)?
    };
    let base = parse_reg(base_str, line)?;
    Ok((offset, base))
}

fn alu_by_name(name: &str) -> Option<AluOp> {
    AluOp::ALL.iter().copied().find(|op| op.mnemonic() == name)
}

fn cond_by_name(name: &str) -> Option<BranchCond> {
    BranchCond::ALL
        .iter()
        .copied()
        .find(|c| c.mnemonic() == name)
}

enum PendingTarget {
    Resolved(u32),
    Label(String),
}

enum Pending {
    Done(Instr),
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: PendingTarget,
    },
    Jump {
        target: PendingTarget,
    },
}

fn parse_target(tok: &str) -> PendingTarget {
    match tok.parse::<u32>() {
        Ok(v) => PendingTarget::Resolved(v),
        Err(_) => PendingTarget::Label(tok.to_string()),
    }
}

/// Assemble source text into a [`Program`] with `num_regs` logical
/// registers. The resulting program is validated.
pub fn assemble(src: &str, num_regs: usize) -> Result<Program, AsmError> {
    // `Program::new` allocates the register file, so a huge count must
    // be refused here, not by the final `validate`.
    Program::check_reg_count(num_regs).map_err(|e| err(0, format!("validation failed: {e}")))?;
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut pendings: Vec<(usize, Pending)> = Vec::new();
    let mut init_mem: Vec<u32> = Vec::new();
    let mut mem_cursor: usize = 0;
    let mut init_regs: Vec<(Reg, u32)> = Vec::new();

    for (lineno0, raw) in src.lines().enumerate() {
        let line = lineno0 + 1;
        // Strip comments.
        let code = raw.split([';', '#']).next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        // Data directives.
        if let Some(rest) = code.strip_prefix(".org") {
            let v = parse_imm(rest.trim(), line)?;
            if v < 0 {
                return Err(err(line, ".org address must be non-negative"));
            }
            mem_cursor = v as usize;
            continue;
        }
        if let Some(rest) = code.strip_prefix(".word") {
            for tok in rest.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                let v = parse_imm(tok, line)? as u32;
                if init_mem.len() <= mem_cursor {
                    init_mem.resize(mem_cursor + 1, 0);
                }
                init_mem[mem_cursor] = v;
                mem_cursor += 1;
            }
            continue;
        }
        if let Some(rest) = code.strip_prefix(".reg") {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 2 {
                return Err(err(line, ".reg takes `rN, value`"));
            }
            let r = parse_reg(parts[0], line)?;
            let v = parse_imm(parts[1], line)? as u32;
            init_regs.push((r, v));
            continue;
        }
        if code.starts_with('.') {
            return Err(err(line, format!("unknown directive `{code}`")));
        }
        // Labels (possibly followed by an instruction on the same line).
        let mut rest = code;
        while let Some(colon) = rest.find(':') {
            let (label, after) = rest.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return Err(err(line, format!("bad label `{label}`")));
            }
            if labels
                .insert(label.to_string(), pendings.len() as u32)
                .is_some()
            {
                return Err(err(line, format!("duplicate label `{label}`")));
            }
            rest = after[1..].trim();
            if rest.is_empty() {
                break;
            }
        }
        if rest.is_empty() {
            continue;
        }

        // Tokenise: mnemonic, then comma-separated operands.
        let (mnemonic, operands) = match rest.split_once(char::is_whitespace) {
            Some((m, rest)) => (m, rest.trim()),
            None => (rest, ""),
        };
        let ops: Vec<&str> = if operands.is_empty() {
            Vec::new()
        } else {
            operands.split(',').map(str::trim).collect()
        };
        let arity = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(
                    line,
                    format!("`{mnemonic}` takes {n} operand(s), got {}", ops.len()),
                ))
            }
        };

        let m = mnemonic.to_ascii_lowercase();
        let pending = match m.as_str() {
            "nop" => {
                arity(0)?;
                Pending::Done(Instr::Nop)
            }
            "halt" => {
                arity(0)?;
                Pending::Done(Instr::Halt)
            }
            "li" => {
                arity(2)?;
                Pending::Done(Instr::LoadImm {
                    rd: parse_reg(ops[0], line)?,
                    imm: parse_imm(ops[1], line)?,
                })
            }
            "lw" => {
                arity(2)?;
                let (offset, base) = parse_mem_operand(ops[1], line)?;
                Pending::Done(Instr::Load {
                    rd: parse_reg(ops[0], line)?,
                    base,
                    offset,
                })
            }
            "sw" => {
                arity(2)?;
                let (offset, base) = parse_mem_operand(ops[1], line)?;
                Pending::Done(Instr::Store {
                    src: parse_reg(ops[0], line)?,
                    base,
                    offset,
                })
            }
            "j" | "jmp" => {
                arity(1)?;
                Pending::Jump {
                    target: parse_target(ops[0]),
                }
            }
            _ => {
                if let Some(cond) = cond_by_name(&m) {
                    arity(3)?;
                    Pending::Branch {
                        cond,
                        rs1: parse_reg(ops[0], line)?,
                        rs2: parse_reg(ops[1], line)?,
                        target: parse_target(ops[2]),
                    }
                } else if let Some(op) = m.strip_suffix('i').and_then(alu_by_name) {
                    arity(3)?;
                    Pending::Done(Instr::AluImm {
                        op,
                        rd: parse_reg(ops[0], line)?,
                        rs1: parse_reg(ops[1], line)?,
                        imm: parse_imm(ops[2], line)?,
                    })
                } else if let Some(op) = alu_by_name(&m) {
                    arity(3)?;
                    Pending::Done(Instr::Alu {
                        op,
                        rd: parse_reg(ops[0], line)?,
                        rs1: parse_reg(ops[1], line)?,
                        rs2: parse_reg(ops[2], line)?,
                    })
                } else {
                    return Err(err(line, format!("unknown mnemonic `{mnemonic}`")));
                }
            }
        };
        pendings.push((line, pending));
    }

    // Second pass: resolve labels.
    let resolve = |t: &PendingTarget, line: usize| -> Result<u32, AsmError> {
        match t {
            PendingTarget::Resolved(v) => Ok(*v),
            PendingTarget::Label(l) => labels
                .get(l)
                .copied()
                .ok_or_else(|| err(line, format!("undefined label `{l}`"))),
        }
    };
    let mut instrs = Vec::with_capacity(pendings.len());
    for (line, p) in &pendings {
        instrs.push(match p {
            Pending::Done(i) => *i,
            Pending::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Instr::Branch {
                cond: *cond,
                rs1: *rs1,
                rs2: *rs2,
                target: resolve(target, *line)?,
            },
            Pending::Jump { target } => Instr::Jump {
                target: resolve(target, *line)?,
            },
        });
    }

    let mut program = Program::new(instrs, num_regs).with_init_mem(init_mem);
    for (r, v) in init_regs {
        if r.index() >= num_regs {
            return Err(err(0, format!(".reg {r} exceeds register file")));
        }
        program.init_regs[r.index()] = v;
    }
    program
        .validate()
        .map_err(|e| err(0, format!("validation failed: {e}")))?;
    Ok(program)
}

/// Render one instruction in assembler syntax.
pub fn disassemble(i: &Instr) -> String {
    match *i {
        Instr::Nop => "nop".to_string(),
        Instr::Halt => "halt".to_string(),
        Instr::Jump { target } => format!("j    {target}"),
        Instr::LoadImm { rd, imm } => format!("li   {rd}, {imm}"),
        Instr::Load { rd, base, offset } => format!("lw   {rd}, {offset}({base})"),
        Instr::Store { src, base, offset } => format!("sw   {src}, {offset}({base})"),
        Instr::Alu { op, rd, rs1, rs2 } => {
            format!("{:<4} {rd}, {rs1}, {rs2}", op.mnemonic())
        }
        Instr::AluImm { op, rd, rs1, imm } => {
            format!("{:<4} {rd}, {rs1}, {imm}", format!("{}i", op.mnemonic()))
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => format!("{:<4} {rs1}, {rs2}, {target}", cond.mnemonic()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;

    #[test]
    fn assemble_and_run_countdown() {
        let src = r"
            ; count 10 down to 0 in r0
                li   r0, 10
            loop:
                subi r0, r0, 1
                bne  r0, r1, loop
                halt
        ";
        let p = assemble(src, 2).unwrap();
        let mut m = Interp::new(&p, 16);
        assert!(m.run(1000).halted());
        assert_eq!(m.regs[0], 0);
    }

    #[test]
    fn labels_on_own_line_and_inline() {
        let src = "a: b: nop\nc:\n j a";
        let p = assemble(src, 1).unwrap();
        assert_eq!(p.instrs[1], Instr::Jump { target: 0 });
    }

    #[test]
    fn numeric_targets_allowed() {
        let p = assemble("j 1\nhalt", 1).unwrap();
        assert_eq!(p.instrs[0], Instr::Jump { target: 1 });
    }

    #[test]
    fn memory_operands() {
        let p = assemble("lw r1, -4(r2)\nsw r1, (r3)\nhalt", 8).unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::Load {
                rd: Reg(1),
                base: Reg(2),
                offset: -4
            }
        );
        assert_eq!(
            p.instrs[1],
            Instr::Store {
                src: Reg(1),
                base: Reg(3),
                offset: 0
            }
        );
    }

    #[test]
    fn hex_immediates() {
        let p = assemble("li r0, 0xff\nli r1, -0x10\nhalt", 2).unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::LoadImm {
                rd: Reg(0),
                imm: 255
            }
        );
        assert_eq!(
            p.instrs[1],
            Instr::LoadImm {
                rd: Reg(1),
                imm: -16
            }
        );
    }

    #[test]
    fn comments_both_styles() {
        let p = assemble("nop ; trailing\n# whole line\nnop # another\nhalt", 1).unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn error_unknown_mnemonic() {
        let e = assemble("frobnicate r1", 4).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("frobnicate"));
    }

    #[test]
    fn error_undefined_label() {
        let e = assemble("j nowhere", 4).unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn error_duplicate_label() {
        let e = assemble("x: nop\nx: nop", 4).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn error_bad_arity() {
        let e = assemble("add r1, r2", 4).unwrap_err();
        assert!(e.msg.contains("takes 3"));
    }

    #[test]
    fn error_register_out_of_program_range() {
        let e = assemble("li r9, 1", 4).unwrap_err();
        assert!(e.msg.contains("validation failed"));
    }

    #[test]
    fn disassemble_roundtrips_through_assembler() {
        let src = r"
            li   r1, 10
            addi r2, r1, -3
            mul  r3, r1, r2
            lw   r4, 8(r3)
            sw   r4, -4(r3)
            beq  r1, r2, 6
            j    0
            nop
            halt
        ";
        let p = assemble(src, 8).unwrap();
        let redisasm: String = p.instrs.iter().map(|i| disassemble(i) + "\n").collect();
        let p2 = assemble(&redisasm, 8).unwrap();
        assert_eq!(p.instrs, p2.instrs);
    }

    #[test]
    fn all_alu_mnemonics_parse() {
        for op in crate::instr::AluOp::ALL {
            let src = format!("{} r1, r2, r3\n{}i r1, r2, 7", op.mnemonic(), op.mnemonic());
            let p = assemble(&src, 8).unwrap();
            assert_eq!(p.len(), 2, "{}", op.mnemonic());
        }
    }

    #[test]
    fn all_branch_mnemonics_parse() {
        for c in crate::instr::BranchCond::ALL {
            let src = format!("x: {} r1, r2, x", c.mnemonic());
            assert!(assemble(&src, 8).is_ok(), "{}", c.mnemonic());
        }
    }
}

#[cfg(test)]
mod directive_tests {
    use super::*;
    use crate::interp::Interp;

    #[test]
    fn word_directive_fills_memory() {
        let p = assemble(".word 10, 20, 30\nhalt", 4).unwrap();
        assert_eq!(p.init_mem, vec![10, 20, 30]);
    }

    #[test]
    fn org_places_words() {
        let p = assemble(".org 4\n.word 7\n.word 8\n.org 1\n.word 99\nhalt", 4).unwrap();
        assert_eq!(p.init_mem, vec![0, 99, 0, 0, 7, 8]);
    }

    #[test]
    fn reg_directive_sets_initial_registers() {
        let p = assemble(".reg r2, 42\n.reg r0, -1\nhalt", 4).unwrap();
        assert_eq!(p.init_regs, vec![u32::MAX, 0, 42, 0]);
    }

    #[test]
    fn directives_compose_with_code() {
        let src = "
            .word 5, 6
            .reg  r1, 0
            lw   r2, (r1)
            lw   r3, 1(r1)
            add  r4, r2, r3
            halt
        ";
        let p = assemble(src, 8).unwrap();
        let mut m = Interp::new(&p, 64);
        assert!(m.run(100).halted());
        assert_eq!(m.regs[4], 11);
    }

    #[test]
    fn directive_errors() {
        assert!(assemble(".org -1", 4).is_err());
        assert!(assemble(".word x", 4).is_err());
        assert!(assemble(".reg r1", 4).is_err());
        assert!(assemble(".reg r9, 1", 4).is_err());
        assert!(assemble(".bogus 3", 4).is_err());
    }

    #[test]
    fn hex_words() {
        let p = assemble(".word 0xff, -0x2\nhalt", 4).unwrap();
        assert_eq!(p.init_mem, vec![255, (-2i32) as u32]);
    }
}
