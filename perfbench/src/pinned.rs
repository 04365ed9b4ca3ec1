//! Pinned digests of the deterministic reports the workloads produce.
//!
//! Every sweep round, daemon job and dispatch is checked against this
//! table, so a change that alters report bytes shows up as `ok_ratio < 1`.
//! Replace the table only for a deliberate, documented change of the report
//! format: the `pins_match_fresh_reports` test prints the fresh table when
//! the two disagree.

use ld_runner::stream::{fnv1a, FNV_OFFSET};
use ld_runner::SweepConfig;

/// The sweep seeds operations rotate over.  The cells of the swept
/// scenarios do not draw on their seed, so the seed changes the report
/// bytes (it is recorded per cell) but not the work.
pub const SWEEP_SEEDS: [u64; 3] = [0x1d_2013, 0x5eed_0001, 0x5eed_0002];

/// `(scenario, max_n, shard_size, sweep seed, FNV-1a 64 of the deterministic
/// report)`.  The report records `shard_size`, so it is part of the key.
const PINNED: &[(&str, usize, usize, u64, u64)] = &[
    ("section2-sweep-xl", 2048, 16, 0x1d2013, 0xa23eb038b847236b),
    (
        "section2-sweep-xl",
        2048,
        16,
        0x5eed0001,
        0xb093d3057379a9b8,
    ),
    (
        "section2-sweep-xl",
        2048,
        16,
        0x5eed0002,
        0x1ccb2587e62f24a2,
    ),
    ("section2-sweep-xl", 64, 16, 0x1d2013, 0xc87ac6ee394b2f41),
    ("section2-sweep-xl", 64, 16, 0x5eed0001, 0xda857735ed507903),
    ("section2-sweep-xl", 64, 16, 0x5eed0002, 0x5b3c2154bcec162a),
    ("section3-sweep", 128, 1, 0x1d2013, 0xa97c471bf83be8e5),
    ("section3-sweep", 128, 1, 0x5eed0001, 0x85d7b752179c8cf6),
    ("section3-sweep", 128, 1, 0x5eed0002, 0xc9e9e8422bbd8c2e),
    ("section3-sweep", 24, 1, 0x1d2013, 0x4c374af938ebe9b9),
    ("section3-sweep", 24, 1, 0x5eed0001, 0xa676a148d5e0952d),
    ("section3-sweep", 24, 1, 0x5eed0002, 0xb74c9d15d252d8ff),
    ("section2-sweep", 32, 16, 0x1d2013, 0x9bd8d4996fc68918),
    ("section2-sweep", 32, 16, 0x5eed0001, 0xe7e377fdccdce593),
    ("section2-sweep", 32, 16, 0x5eed0002, 0x2186de40e46fe909),
    ("section2-sweep", 48, 16, 0x1d2013, 0x87584653682d7753),
    ("section2-sweep", 48, 16, 0x5eed0001, 0xc7af4f94871bf7cf),
    ("section2-sweep", 48, 16, 0x5eed0002, 0xc736c79b079cbd68),
    ("section2-sweep", 64, 16, 0x1d2013, 0x6d15fa32646d7997),
    ("section2-sweep", 64, 16, 0x5eed0001, 0xe6535d4bc2972bdb),
    ("section2-sweep", 64, 16, 0x5eed0002, 0x028a6c48d89b3b28),
    ("section2-sweep", 16, 16, 0x1d2013, 0x1c1fb421bc885d36),
    ("section2-sweep", 16, 16, 0x5eed0001, 0x52e0c92ad62e4646),
    ("section2-sweep", 16, 16, 0x5eed0002, 0xa89c818b80b103e5),
    ("section2-sweep", 24, 16, 0x1d2013, 0x3ef74cef4a3bb715),
    ("section2-sweep", 24, 16, 0x5eed0001, 0x9a694ab7e5e35366),
    ("section2-sweep", 24, 16, 0x5eed0002, 0xf6a37537beb694d8),
];

/// FNV-1a 64 of a report, the digest [`PINNED`] records.
pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Checks report bytes against a digest table.
pub struct Verifier {
    pins: Vec<(String, usize, usize, u64, u64)>,
}

impl Verifier {
    /// The committed table.
    pub fn pinned() -> Self {
        Verifier {
            pins: PINNED
                .iter()
                .map(|&(scenario, max_n, shard_size, seed, digest)| {
                    (scenario.to_string(), max_n, shard_size, seed, digest)
                })
                .collect(),
        }
    }

    /// The committed table with every digest altered: nothing verifies.
    #[cfg(test)]
    pub fn corrupted() -> Self {
        let mut verifier = Verifier::pinned();
        for pin in &mut verifier.pins {
            pin.4 ^= 1;
        }
        verifier
    }

    /// Whether `bytes` is the pinned report of `scenario` under `config`'s
    /// `max_n`, `shard_size` and `seed` (false when nothing is pinned for
    /// them).
    pub fn check(&self, scenario: &str, config: &SweepConfig, bytes: &[u8]) -> bool {
        self.pins
            .iter()
            .find(|(s, n, shard, k, _)| {
                s == scenario
                    && *n == config.max_n
                    && *shard == config.shard_size
                    && *k == config.seed
            })
            .is_some_and(|pin| pin.4 == digest(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_runner::scenarios;
    use ld_runner::stream::{self, StreamOptions};
    use std::path::Path;

    #[test]
    fn pins_match_fresh_reports() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_tmp")
            .join(format!("pins-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let path = dir.join("report.json");
        let options = StreamOptions {
            deterministic: true,
            ..StreamOptions::default()
        };
        let mut fresh = String::new();
        let mut stale = 0;
        for &(name, max_n, shard_size, seed, pinned) in PINNED {
            let scenario = scenarios::find(name).expect("pinned scenarios are built in");
            let config = SweepConfig {
                max_n,
                shard_size,
                seed,
                ..SweepConfig::default()
            };
            stream::run(scenario.as_ref(), &config, &path, &options).expect("sweep runs");
            let found = digest(&std::fs::read(&path).expect("report written"));
            stale += usize::from(found != pinned);
            fresh.push_str(&format!(
                "    (\"{name}\", {max_n}, {shard_size}, {seed:#x}, {found:#018x}),\n"
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = dir.parent().map(std::fs::remove_dir);
        assert_eq!(
            stale, 0,
            "report bytes changed; the fresh table is:\n{fresh}"
        );
    }
}
