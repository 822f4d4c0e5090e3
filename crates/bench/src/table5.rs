//! Table 5: FLASH and RAM footprint of the protection software library.
//!
//! Sizes are measured from the assembled kernel images: the memory-map
//! machinery's FLASH cost is the size difference between the protected and
//! unprotected API sections (it is exactly the code that exists only in the
//! protected build), and RAM costs are computed from the layout.

use harbor::MemMapConfig;
use mini_sos::{Protection, SosLayout, SosSystem};

/// One row of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Component name.
    pub name: &'static str,
    /// Measured FLASH bytes.
    pub flash: u32,
    /// Measured RAM bytes.
    pub ram: u32,
    /// Paper-reported FLASH bytes.
    pub paper_flash: u32,
    /// Paper-reported RAM bytes.
    pub paper_ram: u32,
}

fn api_bytes(p: Protection) -> u32 {
    let sys = SosSystem::build(p, &[], |a, _| {
        a.brk();
    })
    .expect("builds");
    sys.kernel.api.size_bytes()
}

/// Measures the whole table.
pub fn measure() -> Vec<Footprint> {
    let l = SosLayout::default_layout();
    let plain_api = api_bytes(Protection::None);
    let protected_api = api_bytes(Protection::Umpu);

    let heap_bytes = (l.alloc_blocks * 8) as u32;
    let metadata = 31 /* alloc bitmap */ + 34 /* message queue */;

    let map_cfg =
        MemMapConfig::multi_domain(l.prot.prot_bottom, l.prot.prot_top).expect("layout aligned");

    vec![
        Footprint {
            name: "Dynamic Memory",
            flash: plain_api,
            ram: heap_bytes + metadata,
            paper_flash: 1204,
            paper_ram: 2054,
        },
        Footprint {
            name: "Memory Map",
            flash: protected_api - plain_api,
            ram: map_cfg.map_size_bytes() as u32,
            paper_flash: 422,
            paper_ram: 256,
        },
        Footprint {
            name: "Jump Table",
            flash: (l.prot.jt_domains as u32) * 128 * 2,
            ram: 0,
            paper_flash: 2048,
            paper_ram: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_table_cost_is_exact() {
        let rows = measure();
        let jt = rows.iter().find(|r| r.name == "Jump Table").unwrap();
        assert_eq!(jt.flash, 2048, "Table 5's exact jump-table figure");
        assert_eq!(jt.ram, 0);
    }

    #[test]
    fn library_footprints_are_pinned() {
        // (FLASH, RAM) bytes, as EXPERIMENTS.md quotes them.
        let rows: Vec<(&str, u32, u32)> =
            measure().iter().map(|r| (r.name, r.flash, r.ram)).collect();
        assert_eq!(
            rows,
            [("Dynamic Memory", 352, 2049), ("Memory Map", 214, 192), ("Jump Table", 2048, 0)]
        );
    }

    #[test]
    fn memory_map_costs_are_plausible() {
        let rows = measure();
        let mm = rows.iter().find(|r| r.name == "Memory Map").unwrap();
        // Our protected range is 3 KiB (the paper's full-space map was
        // 4 KiB → 256 B); 3 KiB at 8-byte blocks, 2 records/byte = 192 B.
        assert_eq!(mm.ram, 192);
        assert!(mm.flash > 0, "the map maintenance code has a FLASH cost");
        assert!(mm.flash < 1024, "and it is a few hundred bytes, as in the paper");
    }

    #[test]
    fn dynamic_memory_is_the_largest_code_component() {
        let rows = measure();
        let dm = rows.iter().find(|r| r.name == "Dynamic Memory").unwrap();
        let mm = rows.iter().find(|r| r.name == "Memory Map").unwrap();
        assert!(dm.flash > mm.flash, "as in the paper's Table 5");
        assert!(dm.ram > 1000, "the heap dominates RAM cost");
    }
}
