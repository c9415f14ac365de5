//! Scenario-batch execution: the engine under every parallel study.
//!
//! The paper's hottest workloads are *ensembles* — Monte-Carlo UQ over the
//! power-model parameters (§IV) and batched what-if studies (§IV-3) — all
//! of which reduce to "run N independent scenarios, each with its own RNG
//! stream, and gather the results in order". [`EnsembleRunner`] is that
//! primitive: it fans scenarios out across the thread-pool executor behind
//! the `rayon` façade and hands every scenario a [`ScenarioCtx`] carrying
//! its index and a [`Rng`] stream split deterministically from the runner
//! seed. The studies (`exadigit_raps::uq::run_ensemble`, the
//! `exadigit_core::whatif` studies, the service's UQ draws) each batch
//! their own scenarios through it; a caller batching mixed work maps its
//! own inputs through [`EnsembleRunner::map`] or [`EnsembleRunner::try_map`].
//!
//! Determinism: scenario `i` always receives stream `base.split(i)` and
//! results are gathered in scenario order, so output is bit-identical for
//! every pool width (`threads(1)` vs `threads(8)` — enforced by
//! `tests/ensemble_determinism.rs`). See `docs/ENSEMBLES.md`.

use crate::rng::Rng;
use rayon::prelude::*;

/// Per-scenario execution context handed to every scenario closure.
#[derive(Debug, Clone)]
pub struct ScenarioCtx {
    /// Position of this scenario in the batch (0-based); also its RNG
    /// stream id.
    pub index: usize,
    /// This scenario's private random stream, `Rng::new(seed).split(index)`.
    /// Independent of every other scenario's stream and of pool width.
    pub rng: Rng,
}

/// Batches N independent scenarios across the thread-pool executor with
/// per-scenario RNG streams and order-deterministic gathering.
///
/// ```
/// use exadigit_sim::ensemble::EnsembleRunner;
///
/// let runner = EnsembleRunner::new(42).threads(4);
/// let draws: Vec<f64> = runner.run_draws(64, |ctx| ctx.rng.normal(0.0, 1.0));
/// assert_eq!(draws.len(), 64);
/// // Bit-identical at any width:
/// let seq: Vec<f64> = EnsembleRunner::new(42).threads(1)
///     .run_draws(64, |ctx| ctx.rng.normal(0.0, 1.0));
/// assert_eq!(draws, seq);
/// ```
#[derive(Debug, Clone)]
pub struct EnsembleRunner {
    seed: u64,
    threads: Option<usize>,
}

impl EnsembleRunner {
    /// A runner whose scenario streams derive from `seed`. Pool width
    /// defaults to the process-wide setting (`EXADIGIT_THREADS`, else
    /// `RAYON_NUM_THREADS`, else the machine's available parallelism).
    pub fn new(seed: u64) -> Self {
        EnsembleRunner { seed, threads: None }
    }

    /// Pin the pool width for this runner's batches. `1` forces the
    /// sequential reference path; larger values grow the global pool on
    /// demand.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The pool width batches from this runner will use.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(rayon::current_num_threads)
    }

    /// Run a closure under this runner's pool-width setting.
    fn with_pool<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.threads {
            Some(n) => rayon::with_threads(n, f),
            None => f(),
        }
    }

    /// Batch heterogeneous inputs: apply `f` to every input in parallel,
    /// each call receiving a [`ScenarioCtx`] with its own RNG stream.
    /// Results are returned in input order.
    pub fn map<T, R, F>(&self, inputs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut ScenarioCtx, T) -> R + Sync,
    {
        let base = Rng::new(self.seed);
        let indexed: Vec<(usize, T)> = inputs.into_iter().enumerate().collect();
        self.with_pool(|| {
            indexed
                .into_par_iter()
                .map(|(index, input)| {
                    let mut ctx = ScenarioCtx { index, rng: base.split(index as u64) };
                    f(&mut ctx, input)
                })
                .collect()
        })
    }

    /// Fallible batch: like [`EnsembleRunner::map`] but for scenario
    /// functions returning `Result`. All scenarios run to completion
    /// (no cross-thread short-circuit — that would make *which* error
    /// surfaces depend on pool timing); the gathered outcomes are then
    /// folded in index order, so on failure the lowest-index error is
    /// returned, matching sequential short-circuit semantics exactly.
    /// This is the shape every fidelity-selectable what-if sweep uses.
    pub fn try_map<T, R, E, F>(&self, inputs: Vec<T>, f: F) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(&mut ScenarioCtx, T) -> Result<R, E> + Sync,
    {
        self.map(inputs, f).into_iter().collect()
    }

    /// Batch `n` identical draws (the Monte-Carlo shape): `f` runs once per
    /// index with that index's RNG stream.
    pub fn run_draws<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut ScenarioCtx) -> R + Sync,
    {
        self.map((0..n).collect(), |ctx, _| f(ctx))
    }

    /// Batch `n` draws as `min(n, width)` contiguous chunks of near-equal
    /// size, one call of `f` per chunk, so the draws of a chunk can share
    /// work (one schedule carrying several power models). `f` receives
    /// the chunk's contexts in index order, draw `i` with stream
    /// `split(i)` exactly as in [`EnsembleRunner::run_draws`]; the chunks'
    /// results come back in chunk order, which is index order. Output is
    /// bit-identical at every width as long as each draw's share of a
    /// chunk's result depends only on its own context.
    pub fn run_chunks<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut [ScenarioCtx]) -> R + Sync,
    {
        let base = Rng::new(self.seed);
        let chunks = self.effective_threads().min(n);
        let ranges = (0..chunks).map(|c| c * n / chunks..(c + 1) * n / chunks).collect();
        self.map(ranges, |_, range| {
            let mut ctxs: Vec<ScenarioCtx> = range
                .map(|index| ScenarioCtx { index, rng: base.split(index as u64) })
                .collect();
            f(&mut ctxs)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_bit_identical_across_widths() {
        let draw = |ctx: &mut ScenarioCtx| ctx.rng.normal(5.0, 2.0) + ctx.index as f64;
        let seq = EnsembleRunner::new(7).threads(1).run_draws(128, draw);
        for width in [2usize, 4, 8] {
            let par = EnsembleRunner::new(7).threads(width).run_draws(128, draw);
            let same = seq
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "width {width} changed ensemble bits");
        }
    }

    #[test]
    fn streams_are_independent_per_index() {
        let draws = EnsembleRunner::new(3).threads(1).run_draws(16, |ctx| ctx.rng.uniform());
        for (i, a) in draws.iter().enumerate() {
            for b in &draws[i + 1..] {
                assert_ne!(a, b, "two scenario streams collided");
            }
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let inputs: Vec<u64> = (0..200).rev().collect();
        let out = EnsembleRunner::new(0).threads(4).map(inputs.clone(), |ctx, x| (ctx.index, x));
        for (i, (index, x)) in out.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*x, inputs[i]);
        }
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let runner = EnsembleRunner::new(0).threads(4);
        let out: Result<Vec<u64>, String> = runner.try_map((0..64u64).collect(), |_ctx, x| {
            if x % 10 == 7 {
                Err(format!("bad {x}"))
            } else {
                Ok(x * 2)
            }
        });
        assert_eq!(out, Err("bad 7".to_string()));
        let ok: Result<Vec<u64>, String> =
            runner.try_map((0..8u64).collect(), |_ctx, x| Ok(x + 1));
        assert_eq!(ok.unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn run_sweep_gathers_setpoints_in_order() {
        // The gather `whatif_grid` relies on: a fallible sweep through
        // `try_map` in which each point relaxes toward its setpoint,
        // earlier points doing more steps so they finish last on a 2-wide
        // pool. Every result must come back at its sweep position, paired
        // with its own setpoint.
        let setpoints = [20.0, 24.0, 28.0, 32.0];
        let settled: Result<Vec<(f64, f64)>, String> =
            EnsembleRunner::new(0).threads(2).try_map(setpoints.to_vec(), |ctx, sp| {
                let steps = 2_000 * (setpoints.len() - ctx.index);
                let mut temp_c = 40.0;
                for _ in 0..steps {
                    temp_c += 0.01 * (sp - temp_c);
                }
                Ok((sp, temp_c))
            });
        let settled = settled.expect("sweep runs");
        let order: Vec<f64> = settled.iter().map(|(sp, _)| *sp).collect();
        assert_eq!(order, setpoints);
        for (sp, temp_c) in &settled {
            assert!((temp_c - sp).abs() < 1e-3, "setpoint {sp} settled at {temp_c}");
        }
    }

    #[test]
    fn chunks_cover_every_draw_once_with_its_own_stream() {
        let draw = |ctx: &mut ScenarioCtx| (ctx.index, ctx.rng.normal(0.0, 1.0).to_bits());
        let reference = EnsembleRunner::new(11).threads(1).run_draws(10, draw);
        for width in [1usize, 2, 3, 4, 16] {
            let chunks = EnsembleRunner::new(11)
                .threads(width)
                .run_chunks(10, |ctxs| ctxs.iter_mut().map(draw).collect::<Vec<_>>());
            assert_eq!(chunks.len(), width.min(10), "width {width}");
            let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "width {width}: uneven chunks {sizes:?}");
            assert_eq!(chunks.concat(), reference, "width {width}");
        }
        let none: Vec<Vec<usize>> = EnsembleRunner::new(0).run_chunks(0, |c| vec![c.len()]);
        assert!(none.is_empty());
    }

    #[test]
    fn effective_threads_reports_pin() {
        assert_eq!(EnsembleRunner::new(0).threads(6).effective_threads(), 6);
        assert!(EnsembleRunner::new(0).effective_threads() >= 1);
    }
}
