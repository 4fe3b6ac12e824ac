//! The request cost model (paper §3.2.1).
//!
//! ```text
//! I/O cost = ceil(I/O size / 4KB) × C(I/O type, r)
//! ```
//!
//! Costs are expressed in tokens, where one token is the cost of a 4KB
//! random read under mixed load. `C(write, r < 100%)` is 10, 20 and 16
//! tokens for devices A, B and C; when the device-wide load is read-only
//! (`r = 100%`) reads get cheaper (½ token on device A).

use reflex_flash::{DeviceProfile, IoType};

use crate::tokens::Tokens;

/// Device-wide read/write mix relevant to the cost model: the only
/// distinction the paper's linear model makes is *read-only* versus
/// *mixed* (`r = 100%` vs `r < 100%`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadMix {
    /// All tenants currently issue only reads.
    ReadOnly,
    /// At least one tenant issues writes.
    Mixed,
}

/// A calibrated request cost model for one device.
///
/// # Examples
///
/// ```
/// use reflex_flash::IoType;
/// use reflex_qos::{CostModel, LoadMix, Tokens};
///
/// let m = CostModel::for_device_a();
/// // 4KB mixed-load read: 1 token.
/// assert_eq!(m.cost(IoType::Read, 4096, LoadMix::Mixed), Tokens::from_tokens(1));
/// // 4KB read-only read: 1/2 token.
/// assert_eq!(
///     m.cost(IoType::Read, 4096, LoadMix::ReadOnly),
///     Tokens::from_millitokens(500)
/// );
/// // 32KB write on device A: 8 pages x 10 tokens.
/// assert_eq!(m.cost(IoType::Write, 32 * 1024, LoadMix::Mixed), Tokens::from_tokens(80));
/// // 1KB requests cost a full page (the device operates at 4KB granularity).
/// assert_eq!(m.cost(IoType::Read, 1024, LoadMix::Mixed), Tokens::from_tokens(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    page_size: u32,
    read_mixed: Tokens,
    read_only: Tokens,
    write: Tokens,
}

impl CostModel {
    /// Builds a cost model from per-page costs.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero or any cost is non-positive.
    pub fn new(page_size: u32, read_mixed: Tokens, read_only: Tokens, write: Tokens) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        assert!(
            read_mixed.is_positive() && read_only.is_positive() && write.is_positive(),
            "costs must be positive"
        );
        CostModel {
            page_size,
            read_mixed,
            read_only,
            write,
        }
    }

    /// The paper's device A model: `C(write) = 10`, `C(read, 100%) = ½`.
    pub fn for_device_a() -> Self {
        CostModel::new(
            4096,
            Tokens::from_tokens(1),
            Tokens::from_millitokens(500),
            Tokens::from_tokens(10),
        )
    }

    /// The paper's device B model: `C(write) = 20`.
    pub(crate) fn for_device_b() -> Self {
        CostModel::new(
            4096,
            Tokens::from_tokens(1),
            Tokens::from_millitokens(800),
            Tokens::from_tokens(20),
        )
    }

    /// The paper's device C model: `C(write) = 16`.
    pub(crate) fn for_device_c() -> Self {
        CostModel::new(
            4096,
            Tokens::from_tokens(1),
            Tokens::from_millitokens(700),
            Tokens::from_tokens(16),
        )
    }

    /// Picks the published model matching a device profile's name, falling
    /// back to the mechanistic write cost for custom profiles.
    pub fn for_profile(profile: &DeviceProfile) -> Self {
        match profile.name.as_str() {
            "device-a" => Self::for_device_a(),
            "device-b" => Self::for_device_b(),
            "device-c" => Self::for_device_c(),
            _ => {
                let write_mt = (profile.write_cost_tokens() * 1000.0).round() as i64;
                let ro_mt = (profile.read_only_occupancy_factor * 1000.0).round() as i64;
                CostModel::new(
                    profile.page_size,
                    Tokens::from_tokens(1),
                    Tokens::from_millitokens(ro_mt.max(1)),
                    Tokens::from_millitokens(write_mt.max(1)),
                )
            }
        }
    }

    /// The device page size the model is expressed against.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Per-page write cost.
    pub fn write_cost(&self) -> Tokens {
        self.write
    }

    /// Per-page read cost under the given mix.
    pub fn read_cost(&self, mix: LoadMix) -> Tokens {
        match mix {
            LoadMix::ReadOnly => self.read_only,
            LoadMix::Mixed => self.read_mixed,
        }
    }

    /// Cost of a request: `ceil(len / page) × C(op, mix)`. Requests smaller
    /// than a page cost a full page.
    pub fn cost(&self, op: IoType, len: u32, mix: LoadMix) -> Tokens {
        // Up to one page — nearly every request — needs no division.
        let pages = if len <= self.page_size {
            1
        } else {
            len.div_ceil(self.page_size) as i64
        };
        let per_page = match op {
            IoType::Read => self.read_cost(mix),
            IoType::Write => self.write,
        };
        Tokens::from_millitokens(per_page.as_millitokens() * pages)
    }

    /// Token rate needed to sustain `iops` of requests of `len` bytes with
    /// `read_pct`% reads (the reservation formula from §3.2.2: e.g. 100K
    /// IOPS at 80% reads and `C(write)=10` ⇒ 280K tokens/s).
    ///
    /// # Panics
    ///
    /// Panics if `read_pct > 100`.
    pub fn reservation_tokens_per_sec(&self, iops: u64, read_pct: u8, len: u32) -> u64 {
        assert!(read_pct <= 100, "read_pct is a percentage");
        let pages = len.div_ceil(self.page_size).max(1) as u64;
        let read_mt = self.read_mixed.as_millitokens() as u64;
        let write_mt = self.write.as_millitokens() as u64;
        let reads = iops * read_pct as u64 / 100;
        let writes = iops - reads;
        (reads * read_mt + writes * write_mt) * pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reservation_example() {
        // §3.2.2: 100K IOPS at 80% read, write cost 10 => 280K tokens/s.
        let m = CostModel::for_device_a();
        let mt = m.reservation_tokens_per_sec(100_000, 80, 4096);
        assert_eq!(mt, 280_000_000); // millitokens/s
    }

    #[test]
    fn figure5_tenant_b_reservation() {
        // §5.4: tenant B, 70K IOPS at 80% read => 196K tokens/s.
        let m = CostModel::for_device_a();
        let mt = m.reservation_tokens_per_sec(70_000, 80, 4096);
        assert_eq!(mt, 196_000_000);
    }

    #[test]
    fn cost_scales_with_pages() {
        let m = CostModel::for_device_a();
        let one = m.cost(IoType::Write, 4096, LoadMix::Mixed);
        let eight = m.cost(IoType::Write, 32 * 1024, LoadMix::Mixed);
        assert_eq!(eight.as_millitokens(), 8 * one.as_millitokens());
    }

    #[test]
    fn sub_page_requests_cost_a_full_page() {
        let m = CostModel::for_device_a();
        assert_eq!(
            m.cost(IoType::Read, 512, LoadMix::Mixed),
            m.cost(IoType::Read, 4096, LoadMix::Mixed)
        );
    }

    #[test]
    fn one_page_fast_path_equals_div_ceil() {
        let m = CostModel::for_device_a();
        let page = m.page_size();
        for len in [0, 1, page - 1, page, page + 1, 16 * page] {
            let pages = len.div_ceil(page).max(1) as i64;
            for (op, mix, per_page) in [
                (IoType::Read, LoadMix::Mixed, 1_000),
                (IoType::Read, LoadMix::ReadOnly, 500),
                (IoType::Write, LoadMix::Mixed, 10_000),
            ] {
                let want = Tokens::from_millitokens(per_page * pages);
                assert_eq!(m.cost(op, len, mix), want, "{op:?} {len} {mix:?}");
            }
        }
    }

    #[test]
    fn read_only_reads_are_cheaper() {
        for m in [
            CostModel::for_device_a(),
            CostModel::for_device_b(),
            CostModel::for_device_c(),
        ] {
            assert!(m.read_cost(LoadMix::ReadOnly) < m.read_cost(LoadMix::Mixed));
            assert!(m.write_cost() > m.read_cost(LoadMix::Mixed));
        }
    }

    #[test]
    fn device_write_costs_match_paper() {
        assert_eq!(
            CostModel::for_device_a().write_cost(),
            Tokens::from_tokens(10)
        );
        assert_eq!(
            CostModel::for_device_b().write_cost(),
            Tokens::from_tokens(20)
        );
        assert_eq!(
            CostModel::for_device_c().write_cost(),
            Tokens::from_tokens(16)
        );
    }

    #[test]
    fn for_profile_uses_published_models() {
        let m = CostModel::for_profile(&reflex_flash::device_a());
        assert_eq!(m, CostModel::for_device_a());
        let mut custom = reflex_flash::device_b();
        custom.name = "custom".into();
        let m = CostModel::for_profile(&custom);
        // Mechanistic fallback should land near 20 tokens per write.
        let wc = m.write_cost().as_tokens_f64();
        assert!((18.0..22.0).contains(&wc), "fallback write cost {wc}");
    }

    #[test]
    #[should_panic(expected = "costs must be positive")]
    fn zero_cost_rejected() {
        let _ = CostModel::new(4096, Tokens::ZERO, Tokens::ZERO, Tokens::ZERO);
    }
}
