//! `oskit-exec` — program loading (paper Table 3's `exec` library).
//!
//! The C OSKit's exec library parses a.out and ELF images and loads them
//! through client-supplied callbacks, so the same code serves kernels
//! loading user programs and boot loaders loading kernels.  This
//! reproduction defines a compact executable format ("OEXE", standing in
//! for the era's a.out) with the same loader architecture: parsing is
//! pure, and the client supplies the memory callbacks.

#![forbid(unsafe_code)]

use oskit_amm::{flags as amm_flags, Amm};
use oskit_machine::{Machine, PhysAddr};
use std::sync::Arc;

/// OEXE magic ("OEX1").
pub const MAGIC: u32 = 0x4F45_5831;

/// Section permission flags.
pub mod sflags {
    /// Readable.
    pub const R: u32 = 1;
    /// Writable.
    pub const W: u32 = 2;
    /// Executable.
    pub const X: u32 = 4;
}

/// One loadable section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// Virtual load address.
    pub vaddr: u32,
    /// Offset of initialized bytes within the image file.
    pub file_off: u32,
    /// Initialized byte count.
    pub file_size: u32,
    /// Total in-memory size (the excess is BSS, zero-filled).
    pub mem_size: u32,
    /// Permissions (`sflags`).
    pub flags: u32,
}

/// A parsed executable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecImage {
    /// Entry point.
    pub entry: u32,
    /// Loadable sections.
    pub sections: Vec<Section>,
}

impl ExecImage {
    /// Serializes `sections` of `payloads` into an image file.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` does not match `sections` (builder misuse).
    pub fn build(entry: u32, sections: &[(Section, Vec<u8>)]) -> Vec<u8> {
        let header_len = 12 + sections.len() * 20;
        let mut out = vec![0u8; header_len];
        out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        out[4..8].copy_from_slice(&entry.to_le_bytes());
        out[8..12].copy_from_slice(&(sections.len() as u32).to_le_bytes());
        for (i, (s, payload)) in sections.iter().enumerate() {
            assert_eq!(s.file_size as usize, payload.len(), "builder misuse");
            let off = 12 + i * 20;
            let file_off = out.len() as u32;
            out[off..off + 4].copy_from_slice(&s.vaddr.to_le_bytes());
            out[off + 4..off + 8].copy_from_slice(&file_off.to_le_bytes());
            out[off + 8..off + 12].copy_from_slice(&s.file_size.to_le_bytes());
            out[off + 12..off + 16].copy_from_slice(&s.mem_size.to_le_bytes());
            out[off + 16..off + 20].copy_from_slice(&s.flags.to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses an image; `None` on bad magic or malformed headers.
    pub fn parse(image: &[u8]) -> Option<ExecImage> {
        if image.len() < 12 {
            return None;
        }
        let w = |o: usize| u32::from_le_bytes([image[o], image[o + 1], image[o + 2], image[o + 3]]);
        if w(0) != MAGIC {
            return None;
        }
        let entry = w(4);
        let nsec = w(8) as usize;
        if image.len() < 12 + nsec * 20 {
            return None;
        }
        let mut sections = Vec::with_capacity(nsec);
        for i in 0..nsec {
            let off = 12 + i * 20;
            let s = Section {
                vaddr: w(off),
                file_off: w(off + 4),
                file_size: w(off + 8),
                mem_size: w(off + 12),
                flags: w(off + 16),
            };
            if s.mem_size < s.file_size {
                return None;
            }
            let end = s.file_off.checked_add(s.file_size)? as usize;
            if end > image.len() {
                return None;
            }
            sections.push(s);
        }
        Some(ExecImage { entry, sections })
    }
}

/// The client-supplied memory callbacks (`exec_sectype_t` handlers in the
/// C library).
pub trait LoadSink {
    /// Maps/reserves `[vaddr, vaddr+size)` with `flags`; returns false to
    /// abort the load (overlap, out of memory).
    fn reserve(&mut self, vaddr: u32, size: u32, flags: u32) -> bool;

    /// Copies initialized bytes to `vaddr` (BSS is zeroed by the loader
    /// through this same callback with a zero slice semantic: see
    /// [`load`]).
    fn write(&mut self, vaddr: u32, bytes: &[u8]);
}

/// Loading errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Not an OEXE image.
    BadFormat,
    /// The sink refused a section (overlap / out of memory).
    Refused,
}

/// Loads `image` through `sink`; returns the entry point.
pub fn load(image: &[u8], sink: &mut dyn LoadSink) -> Result<u32, ExecError> {
    let parsed = ExecImage::parse(image).ok_or(ExecError::BadFormat)?;
    for s in &parsed.sections {
        if !sink.reserve(s.vaddr, s.mem_size, s.flags) {
            return Err(ExecError::Refused);
        }
        let init = &image[s.file_off as usize..(s.file_off + s.file_size) as usize];
        sink.write(s.vaddr, init);
        if s.mem_size > s.file_size {
            let zeros = vec![0u8; (s.mem_size - s.file_size) as usize];
            sink.write(s.vaddr + s.file_size, &zeros);
        }
    }
    Ok(parsed.entry)
}

/// A ready-made sink: loads into a process address space modeled by an
/// [`Amm`] over the machine's physical memory, identity-mapped (the
/// simple kernels the kit bootstraps run this way).
pub struct AmmPhysSink<'a> {
    /// The address-space map (entries gain `ALLOCATED | flags<<8`).
    pub amm: &'a mut Amm,
    /// The machine whose memory receives the bytes.
    pub machine: &'a Arc<Machine>,
}

impl LoadSink for AmmPhysSink<'_> {
    fn reserve(&mut self, vaddr: u32, size: u32, flags: u32) -> bool {
        if size == 0 {
            return true;
        }
        let (base, limit) = self.amm.range();
        let end = u64::from(vaddr) + u64::from(size);
        if u64::from(vaddr) < base || end > limit {
            return false;
        }
        // Refuse overlap with anything already allocated.
        let mut at = u64::from(vaddr);
        while at < end {
            let e = match self.amm.entry_at(at) {
                Some(e) => e,
                None => return false,
            };
            if e.flags != amm_flags::FREE {
                return false;
            }
            at = e.end;
        }
        self.amm
            .modify(u64::from(vaddr), u64::from(size), amm_flags::ALLOCATED | (flags << 8));
        true
    }

    fn write(&mut self, vaddr: u32, bytes: &[u8]) {
        self.machine.phys.write(vaddr as PhysAddr, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_machine::Sim;

    fn two_section_image() -> Vec<u8> {
        ExecImage::build(
            0x40_1000,
            &[
                (
                    Section {
                        vaddr: 0x40_0000,
                        file_off: 0, // Filled in by build.
                        file_size: 6,
                        mem_size: 6,
                        flags: sflags::R | sflags::X,
                    },
                    b"TEXT..".to_vec(),
                ),
                (
                    Section {
                        vaddr: 0x41_0000,
                        file_off: 0,
                        file_size: 4,
                        mem_size: 0x100, // BSS beyond the 4 data bytes.
                        flags: sflags::R | sflags::W,
                    },
                    b"DATA".to_vec(),
                ),
            ],
        )
    }

    #[test]
    fn build_parse_round_trip() {
        let img = two_section_image();
        let parsed = ExecImage::parse(&img).unwrap();
        assert_eq!(parsed.entry, 0x40_1000);
        assert_eq!(parsed.sections.len(), 2);
        assert_eq!(parsed.sections[0].file_size, 6);
        assert_eq!(parsed.sections[1].mem_size, 0x100);
    }

    #[test]
    fn parse_rejects_garbage_and_truncation() {
        assert!(ExecImage::parse(b"shrt").is_none());
        assert!(ExecImage::parse(&[0u8; 64]).is_none());
        let mut img = two_section_image();
        img.truncate(20); // Header promises more sections than exist.
        assert!(ExecImage::parse(&img).is_none());
    }

    #[test]
    fn load_into_amm_and_memory() {
        let sim = Sim::new();
        let machine = Machine::new(&sim, "m", 8 << 20);
        let mut amm = Amm::new(0, 8 << 20, amm_flags::FREE);
        let img = two_section_image();
        let entry = {
            let mut sink = AmmPhysSink {
                amm: &mut amm,
                machine: &machine,
            };
            load(&img, &mut sink).unwrap()
        };
        assert_eq!(entry, 0x40_1000);
        // Bytes landed.
        let mut buf = [0u8; 6];
        machine.phys.read(0x40_0000, &mut buf);
        assert_eq!(&buf, b"TEXT..");
        let mut buf = [0u8; 4];
        machine.phys.read(0x41_0000, &mut buf);
        assert_eq!(&buf, b"DATA");
        // BSS zeroed.
        let mut bss = [0xFFu8; 16];
        machine.phys.read(0x41_0004, &mut bss);
        assert!(bss.iter().all(|&b| b == 0));
        // The address map records both sections with their flags.
        let text = amm.entry_at(0x40_0000).unwrap();
        assert_eq!(
            text.flags,
            amm_flags::ALLOCATED | ((sflags::R | sflags::X) << 8)
        );
        let data = amm.entry_at(0x41_0080).unwrap();
        assert_eq!(
            data.flags,
            amm_flags::ALLOCATED | ((sflags::R | sflags::W) << 8)
        );
        amm.check_invariants();
    }

    #[test]
    fn overlapping_sections_are_refused() {
        let sim = Sim::new();
        let machine = Machine::new(&sim, "m", 8 << 20);
        let mut amm = Amm::new(0, 8 << 20, amm_flags::FREE);
        let img = ExecImage::build(
            0,
            &[
                (
                    Section {
                        vaddr: 0x1000,
                        file_off: 0,
                        file_size: 4,
                        mem_size: 0x2000,
                        flags: sflags::R,
                    },
                    b"AAAA".to_vec(),
                ),
                (
                    Section {
                        vaddr: 0x2000, // Inside the first section.
                        file_off: 0,
                        file_size: 4,
                        mem_size: 4,
                        flags: sflags::R,
                    },
                    b"BBBB".to_vec(),
                ),
            ],
        );
        let mut sink = AmmPhysSink {
            amm: &mut amm,
            machine: &machine,
        };
        assert_eq!(load(&img, &mut sink), Err(ExecError::Refused));
    }

    #[test]
    fn out_of_range_sections_are_refused() {
        let sim = Sim::new();
        let machine = Machine::new(&sim, "m", 1 << 20);
        let mut amm = Amm::new(0, 1 << 20, amm_flags::FREE);
        let img = ExecImage::build(
            0,
            &[(
                Section {
                    vaddr: 0xFFFF_0000,
                    file_off: 0,
                    file_size: 1,
                    mem_size: 1,
                    flags: sflags::R,
                },
                vec![0],
            )],
        );
        let mut sink = AmmPhysSink {
            amm: &mut amm,
            machine: &machine,
        };
        assert_eq!(load(&img, &mut sink), Err(ExecError::Refused));
    }
}
