//! The federated worker program.
//!
//! Speaks the `plp-fed` frame protocol on stdin/stdout and nothing else.
//! The coordinator sets `PLP_FED_WORKER=1` when spawning; running this
//! binary by hand without it prints a hint instead of blocking on a
//! protocol nobody is speaking.

fn main() {
    if std::env::var(plp_fed::WORKER_ENV).as_deref() == Ok("1") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        std::process::exit(plp_fed::worker_main(&mut stdin.lock(), &mut stdout.lock()));
    }
    eprintln!(
        "plp_fed_worker: not spawned by a coordinator (set {}=1 and speak \
         the frame protocol on stdin/stdout)",
        plp_fed::WORKER_ENV
    );
    std::process::exit(2);
}
