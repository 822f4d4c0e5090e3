//! The over-the-air module wire format.
//!
//! A module is assembled (and, under SFI, rewritten + verified) **once** at
//! the base station, then shipped as bytes: nodes must not need the
//! assembler or the rewriter at run time, mirroring SOS's distribution of
//! pre-built binary modules. The wire image carries exactly what the
//! loader's install path needs — the flash object and the jump-table entry
//! addresses — plus a checksum so a corrupted reassembly is rejected rather
//! than burned into flash.

use mini_sos::loader::{load_module, LoadedModule, ModuleSource};
use mini_sos::{Protection, SosLayout};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;

const MAGIC: [u8; 4] = *b"HBRF";
const VERSION: u8 = 1;

/// A pre-assembled module in transportable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleImage {
    /// Human-readable module name.
    pub name: String,
    /// Destination domain (0..=6).
    pub domain: u8,
    /// Flash slot origin the object was assembled for (word address).
    pub origin: u32,
    /// The machine-code words (post-rewrite under SFI).
    pub words: Vec<u16>,
    /// Absolute word addresses of the exported entries.
    pub entry_addrs: Vec<u32>,
}

/// A wire image failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageError {
    /// Missing or wrong magic/version header.
    BadHeader,
    /// The byte stream ended mid-field.
    Truncated,
    /// The checksum over the payload did not match.
    BadChecksum,
    /// The domain byte is outside 0..=6.
    BadDomain,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::BadHeader => write!(f, "bad module image header"),
            ImageError::Truncated => write!(f, "truncated module image"),
            ImageError::BadChecksum => write!(f, "module image checksum mismatch"),
            ImageError::BadDomain => write!(f, "module image domain out of range"),
        }
    }
}

impl std::error::Error for ImageError {}

impl ModuleImage {
    /// Assembles `src` for `protection` under `layout` — the base-station
    /// half of dissemination. Under SFI this builds the same run-time the
    /// nodes boot with, so the rewritten object is bit-identical to what a
    /// node-local load would produce.
    ///
    /// # Errors
    ///
    /// [`mini_sos::loader::LoadError`] if the module cannot be sandboxed or
    /// does not fit its slot.
    pub fn assemble(
        src: &ModuleSource,
        layout: &SosLayout,
        protection: Protection,
    ) -> Result<ModuleImage, mini_sos::loader::LoadError> {
        let runtime = match protection {
            Protection::Sfi => {
                Some(harbor_sfi::SfiRuntime::shared(layout.prot, layout.runtime_origin))
            }
            _ => None,
        };
        let loaded = load_module(src, layout, protection, runtime.as_deref())?;
        Ok(ModuleImage {
            name: loaded.name.to_string(),
            domain: loaded.domain.index(),
            origin: loaded.object.origin(),
            words: loaded.object.words().to_vec(),
            entry_addrs: loaded.entry_addrs,
        })
    }

    /// Converts back into the loader's install form (the node half; see
    /// [`mini_sos::SosSystem::install_module`]).
    pub fn to_loaded(&self) -> LoadedModule {
        LoadedModule {
            name: intern(&self.name),
            domain: harbor::DomainId::num(self.domain),
            object: avr_asm::Object::from_parts(self.origin, self.words.clone(), BTreeMap::new()),
            entry_addrs: self.entry_addrs.clone(),
        }
    }

    /// Serializes to the wire format (little-endian fields, trailing FNV-1a
    /// checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.name.len() + self.words.len() * 2);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.domain);
        let name = self.name.as_bytes();
        out.push(name.len().min(255) as u8);
        out.extend_from_slice(&name[..name.len().min(255)]);
        out.extend_from_slice(&self.origin.to_le_bytes());
        out.push(self.entry_addrs.len().min(255) as u8);
        for &e in &self.entry_addrs {
            out.extend_from_slice(&e.to_le_bytes());
        }
        out.extend_from_slice(&(self.words.len() as u16).to_le_bytes());
        for &w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses the wire format.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on any malformed, truncated or corrupted stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<ModuleImage, ImageError> {
        if bytes.len() < MAGIC.len() + 2 + 8 {
            return Err(ImageError::Truncated);
        }
        let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let sum = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if fnv1a(payload) != sum {
            return Err(ImageError::BadChecksum);
        }
        let mut r = Reader { buf: payload, at: 0 };
        if r.take(4)? != MAGIC || r.u8()? != VERSION {
            return Err(ImageError::BadHeader);
        }
        let domain = r.u8()?;
        if domain > 6 {
            return Err(ImageError::BadDomain);
        }
        let name_len = r.u8()? as usize;
        let name = String::from_utf8_lossy(r.take(name_len)?).into_owned();
        let origin = r.u32()?;
        let n_entries = r.u8()? as usize;
        let entry_addrs = (0..n_entries).map(|_| r.u32()).collect::<Result<_, _>>()?;
        let n_words = r.u16()? as usize;
        let words = (0..n_words).map(|_| r.u16()).collect::<Result<_, _>>()?;
        if r.at != r.buf.len() {
            return Err(ImageError::BadHeader);
        }
        Ok(ModuleImage { name, domain, origin, words, entry_addrs })
    }

    /// Splits the wire bytes into dissemination chunks of `chunk_bytes`
    /// (the last chunk may be shorter).
    pub fn chunks(&self, chunk_bytes: usize) -> Vec<Vec<u8>> {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        self.to_bytes().chunks(chunk_bytes).map(<[u8]>::to_vec).collect()
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        let end = self.at.checked_add(n).ok_or(ImageError::Truncated)?;
        if end > self.buf.len() {
            return Err(ImageError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ImageError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ImageError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, ImageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
}

/// Module names are `&'static str` throughout the loader, so a name that
/// arrives over the air has to be leaked. Interning leaks each distinct
/// name once per process, however many nodes install the module.
fn intern(name: &str) -> &'static str {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().expect("no thread panics while holding the name table");
    if let Some(&known) = names.get(name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.into());
    names.insert(leaked);
    leaked
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_sos::modules;

    #[test]
    fn wire_round_trip() {
        let layout = SosLayout::default_layout();
        for p in [Protection::None, Protection::Umpu, Protection::Sfi] {
            let img = ModuleImage::assemble(&modules::tree_routing(3), &layout, p).unwrap();
            let back = ModuleImage::from_bytes(&img.to_bytes()).unwrap();
            assert_eq!(back, img, "{p:?}");
        }
    }

    #[test]
    fn corruption_is_rejected() {
        let layout = SosLayout::default_layout();
        let img = ModuleImage::assemble(&modules::blink(0), &layout, Protection::Umpu).unwrap();
        let mut bytes = img.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(ModuleImage::from_bytes(&bytes), Err(ImageError::BadChecksum));
        assert_eq!(ModuleImage::from_bytes(&bytes[..8]), Err(ImageError::Truncated));
    }

    #[test]
    fn installs_of_one_image_share_one_name() {
        let layout = SosLayout::default_layout();
        let img = ModuleImage::assemble(&modules::blink(0), &layout, Protection::Umpu).unwrap();
        let (a, b) = (img.clone().to_loaded(), img.clone().to_loaded());
        assert_eq!(a.name, img.name);
        assert!(std::ptr::eq(a.name, b.name));
    }

    #[test]
    fn chunks_reassemble() {
        let layout = SosLayout::default_layout();
        let img = ModuleImage::assemble(&modules::surge(1, 3), &layout, Protection::Sfi).unwrap();
        let chunks = img.chunks(32);
        let glued: Vec<u8> = chunks.concat();
        assert_eq!(ModuleImage::from_bytes(&glued).unwrap(), img);
    }
}
