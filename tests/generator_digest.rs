//! Golden digests of the suite generator's output.
//!
//! `SuiteConfig::generate` is a pinned function of its config: every
//! stream, the column count and the per-node row counts must stay
//! byte-identical across refactors of the generator, because every
//! simulated number in the repo (EXPERIMENTS.md, the determinism and
//! trace digests, the chaos reports) is downstream of them. Each digest
//! is FNV-1a over `n_cols`, then every node's row count, then every
//! node's stream length and idxs, all as little-endian `u32`s.
//!
//! The default test covers all five matrices at a small scale on the
//! paper's 128-node, rack-of-16 layout at two seeds, plus a 32-node,
//! rack-of-8 layout; together they reach every `DestShape` the suite uses
//! and the hub path. The ignored test pins the four benchmark-sized
//! configurations (`cargo test --release --test generator_digest --
//! --ignored`).

use netsparse_sparse::suite::SuiteConfig;
use netsparse_sparse::{CommWorkload, SuiteMatrix};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn digest(wl: &CommWorkload) -> u64 {
    let mut d = FNV_OFFSET;
    let mut put = |x: u32| {
        for b in x.to_le_bytes() {
            d = (d ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    };
    put(wl.n_cols());
    for p in 0..wl.nodes() {
        put(wl.rows_of(p));
    }
    for p in 0..wl.nodes() {
        let s = wl.stream(p);
        put(s.len() as u32);
        s.iter().for_each(|&idx| put(idx));
    }
    d
}

fn config(matrix: SuiteMatrix, nodes: u32, rack_size: u32, scale: f64, seed: u64) -> SuiteConfig {
    SuiteConfig {
        matrix,
        nodes,
        rack_size,
        scale,
        seed,
    }
}

fn check(cases: &[(SuiteConfig, u64)]) {
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|&(cfg, want)| {
            let got = digest(&cfg.generate());
            (got != want).then(|| {
                format!(
                    "{} nodes={} rack={} scale={} seed={}: got {got:#018x}, want {want:#018x}",
                    cfg.matrix, cfg.nodes, cfg.rack_size, cfg.scale, cfg.seed
                )
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "generator output changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn small_configs_match_golden_digests() {
    use SuiteMatrix::*;
    check(&[
        (config(Arabic, 128, 16, 0.05, 2025), 0xf1e6_8d1e_37ec_ee00),
        (config(Europe, 128, 16, 0.05, 2025), 0xd88c_802b_17e0_4d16),
        (config(Queen, 128, 16, 0.05, 2025), 0x8b96_fe44_1fa8_d298),
        (config(Stokes, 128, 16, 0.05, 2025), 0x5c8b_5841_2b65_8fc4),
        (config(Uk, 128, 16, 0.05, 2025), 0x9461_2912_5b0e_4558),
        (config(Arabic, 128, 16, 0.05, 7919), 0xb4b6_d8e8_3b68_463f),
        (config(Europe, 128, 16, 0.05, 7919), 0xe568_7399_0a08_3d39),
        (config(Queen, 128, 16, 0.05, 7919), 0xdad2_2ad5_a902_1417),
        (config(Stokes, 128, 16, 0.05, 7919), 0xff76_6599_867f_bc53),
        (config(Uk, 128, 16, 0.05, 7919), 0x147c_882d_c3b8_e3fd),
        (config(Uk, 32, 8, 0.05, 7), 0x8f0c_ddb3_2068_a8c4),
    ]);
}

#[test]
#[ignore = "benchmark-sized; run with --release -- --ignored"]
fn benchmark_configs_match_golden_digests() {
    use SuiteMatrix::*;
    check(&[
        (config(Uk, 128, 16, 1.0, 2025), 0x527b_c163_5e08_04a0),
        (config(Europe, 128, 16, 0.5, 2025), 0x2ab0_c8b8_e16c_8e47),
        (config(Arabic, 128, 16, 1.0, 2025), 0xa515_abd7_17c4_1c40),
        (config(Stokes, 128, 16, 0.5, 2025), 0xda9a_c1a0_04ee_ff58),
        (config(Uk, 128, 16, 1.0, 7919), 0xf8f2_28da_83ca_2e5e),
        (config(Europe, 128, 16, 0.5, 7919), 0x7ddf_6042_aa98_4e0a),
        (config(Arabic, 128, 16, 1.0, 7919), 0xa956_5a0a_e625_f338),
        (config(Stokes, 128, 16, 0.5, 7919), 0xb424_cb5b_a5d8_2349),
    ]);
}
