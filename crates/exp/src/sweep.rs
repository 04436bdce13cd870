//! Generic parallel parameter sweeps.

use vire_core::WorkerPool;

/// Maps `f` over `params` on the shared [`WorkerPool`], preserving input
/// order in the output.
///
/// Each parameter writes its own pre-sized output slot, so the result is
/// bit-identical to a sequential map whatever the lane count. Used for
/// the Fig. 7 (virtual-tag density) and Fig. 8 (threshold) sweeps where
/// each point is an independent batch of simulations.
pub fn parallel_sweep<P, R, F>(params: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = params.iter().map(|_| None).collect();
    WorkerPool::global().for_each_mut(&mut slots, |i, slot| *slot = Some(f(&params[i])));
    slots
        .into_iter()
        .map(|r| r.expect("every sweep slot is written"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sweep_preserves_order() {
        let params: Vec<u64> = (0..16).collect();
        let out = parallel_sweep(&params, |&p| p * p);
        assert_eq!(out, params.iter().map(|p| p * p).collect::<Vec<_>>());
    }

    #[test]
    fn all_params_are_visited_once() {
        let counter = AtomicUsize::new(0);
        let params: Vec<usize> = (0..32).collect();
        parallel_sweep(&params, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn empty_sweep_is_empty() {
        let out: Vec<u64> = parallel_sweep(&[] as &[u64], |&p| p);
        assert!(out.is_empty());
    }
}
