//! The one scoped fan-out every threaded pass of the workspace goes through:
//! the private step's fused noise and server update, HR@k, k-means
//! assignment and the serving engine's stripes.
//!
//! The caller is a worker, not a bystander: part 0 runs on the calling
//! thread and only parts `1..` get a thread, so a pass split into `n` parts
//! spawns `n − 1` threads and a one-part pass spawns none. That is why no
//! caller needs a sequential twin or a `threads ≤ 1` branch.

/// Runs `f` over every part — part 0 on the calling thread, each further
/// part on its own [`std::thread::scope`] thread — and returns the results
/// in part order. Spawns `parts.len() − 1` threads, none for one part or
/// none.
///
/// # Panics
/// A panic in any part is re-raised on the caller, after every part has
/// finished.
pub fn fan_out<T: Send, R: Send>(parts: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if parts.len() <= 1 {
        return parts.into_iter().map(f).collect();
    }
    let f = &f;
    let mut parts = parts.into_iter();
    let own = parts.next().expect("more than one part");
    std::thread::scope(|scope| {
        let spawned: Vec<_> = parts.map(|part| scope.spawn(move || f(part))).collect();
        let own = f(own);
        std::iter::once(own)
            .chain(spawned.into_iter().map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            }))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn results_come_back_in_part_order() {
        let parts: Vec<usize> = (0..7).collect();
        assert_eq!(fan_out(parts, |i| i * 10), vec![0, 10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn part_zero_runs_on_the_caller_and_the_rest_do_not() {
        let caller = thread::current().id();
        let ids = fan_out(vec![(); 4], |()| thread::current().id());
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|&id| id != caller));
    }

    #[test]
    fn one_part_spawns_no_thread() {
        let caller = thread::current().id();
        assert_eq!(fan_out(vec![()], |()| thread::current().id()), vec![caller]);
    }

    #[test]
    fn no_parts_give_no_results() {
        let calls = AtomicUsize::new(0);
        let out: Vec<()> = fan_out(Vec::<()>::new(), |()| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert!(out.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_panicking_part_propagates() {
        for bad in [0usize, 2] {
            let caught = std::panic::catch_unwind(|| {
                fan_out((0..3).collect(), |i: usize| {
                    assert_ne!(i, bad, "part {bad} fails");
                    i
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("the original payload");
            assert!(message.contains(&format!("part {bad} fails")), "{message}");
        }
    }
}
