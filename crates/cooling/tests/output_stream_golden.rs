//! Golden of the L4 plant's full output stream.
//!
//! Each AutoCSM plant is set up and stepped through two simulated days
//! (2,880 steps of 15 s) under a load that ramps up and down every
//! 20 steps across 0.25–1.05 of design and a wet-bulb that swings
//! 6–24 °C once a day, so the run crosses pump, tower-cell and EHX
//! staging. After every step the `f64::to_bits` of every registry
//! variable is folded into an FNV-1a hash: any change to the numbers the
//! plant produces, down to the last bit of one output in one step, moves
//! the hash. After the run, the model's `save_state()` JSON is hashed the
//! same way, so a refactor that changes a saved field (a cooled snapshot's
//! bytes) moves that pin even if no output does. Solver and sub-step
//! refactors must leave all six hashes as pinned here.

use exadigit_cooling::{CoolingModel, PlantSpec};
use exadigit_sim::fmi::{CoSimModel, VarRef};
use std::collections::BTreeSet;

const STEPS: u64 = 2_880;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `hash` with `bytes` folded in, FNV-1a-64.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// What a two-day run leaves behind.
struct Run {
    /// FNV-1a-64 of every variable after every step.
    outputs: u64,
    /// FNV-1a-64 of the `save_state()` JSON after the last step.
    save: u64,
    /// The staging regimes `(cells, HTWPs, EHXs)` the run visited.
    regimes: BTreeSet<(u32, u32, u32)>,
}

fn output_stream(spec: PlantSpec) -> Run {
    let mut model = CoolingModel::new(spec).expect("preset spec is valid");
    model.setup(0.0);
    let n = model.spec().num_cdus;
    let heat_per_cdu = model.spec().heat_per_cdu_w();
    let (wet_bulb, it_power) = (VarRef(n as u32), VarRef(n as u32 + 1));

    let mut hash = FNV_OFFSET;
    let mut regimes = BTreeSet::new();
    for k in 0..STEPS {
        if k % 20 == 0 {
            let phase = (k / 20) % 48;
            let f = 0.25 + 0.8 * phase.min(48 - phase) as f64 / 24.0;
            for i in 0..n {
                model
                    .set_real(VarRef(i as u32), heat_per_cdu * f * (1.0 + 0.02 * i as f64))
                    .unwrap();
            }
            model.set_real(it_power, 20.0e6 * f).unwrap();
        }
        let d = k % 1_440;
        model.set_real(wet_bulb, 6.0 + 18.0 * d.min(1_440 - d) as f64 / 720.0).unwrap();
        model.do_step(15.0 * k as f64, 15.0).unwrap();

        for v in model.variables() {
            hash = fnv1a(hash, &model.get_real(v.vr).unwrap().to_bits().to_le_bytes());
        }
        regimes.insert(model.staging_key());
    }
    let json = serde_json::to_string(&model.save_state().expect("the plant saves")).unwrap();
    Run { outputs: hash, save: fnv1a(FNV_OFFSET, json.as_bytes()), regimes }
}

#[test]
fn frontier_output_stream_is_pinned() {
    let run = output_stream(PlantSpec::frontier());
    assert_eq!(run.outputs, 0x540a_94b1_0945_9d7b, "Frontier output stream moved: {:016x}", run.outputs);
    assert_eq!(run.save, 0x2542_5f2e_a866_dae7, "Frontier saved state moved: {:016x}", run.save);
    assert_eq!(run.regimes.len(), 8, "the schedule must cross staging regimes: {:?}", run.regimes);
}

#[test]
fn setonix_like_output_stream_is_pinned() {
    let run = output_stream(PlantSpec::setonix_like());
    assert_eq!(run.outputs, 0xffd2_a3f1_2f88_4b0b, "Setonix-like output stream moved: {:016x}", run.outputs);
    assert_eq!(run.save, 0x3caa_0498_0e8a_83f6, "Setonix-like saved state moved: {:016x}", run.save);
}

#[test]
fn marconi100_like_output_stream_is_pinned() {
    let run = output_stream(PlantSpec::marconi100_like());
    assert_eq!(run.outputs, 0xbedb_c6b7_aad2_5c34, "Marconi100-like output stream moved: {:016x}", run.outputs);
    assert_eq!(run.save, 0xe378_de24_114f_0961, "Marconi100-like saved state moved: {:016x}", run.save);
}
