//! Virtual time is deterministic: one seed gives byte-identical `vt_*`
//! figures and digest, and the threaded lane replays the sequential
//! lane's timeline exactly.

use perfbench::run::vt_run;
use perfbench::work::Kind;

fn same_seed_same_window(kind: Kind, window: u64) {
    let a = vt_run(kind, 7, window).expect("first run");
    let b = vt_run(kind, 7, window).expect("second run");
    assert_eq!(a.ops, window);
    assert_eq!(a.digest, b.digest, "{} digest", kind.name());
    assert_eq!(a.lat_ns, b.lat_ns, "{} virtual latencies", kind.name());
    assert_eq!(a.summary(), b.summary(), "{} vt figures", kind.name());
    let other = vt_run(kind, 8, window).expect("other seed");
    assert_ne!(a.digest, other.digest, "{}: the seed must shape the inputs", kind.name());
}

#[test]
fn sqlite_rw_is_deterministic_per_seed() {
    same_seed_same_window(Kind::SqliteRw, 2_000);
}

#[test]
fn ring_fanin_is_deterministic_per_seed() {
    same_seed_same_window(Kind::RingFanin, 4_096);
}

#[test]
fn cam_capture_is_deterministic_per_seed() {
    same_seed_same_window(Kind::CamCapture, 9);
}

#[test]
fn threaded_fanin_replays_the_sequential_timeline() {
    for seed in [3, 4] {
        let seq = vt_run(Kind::RingFanin, seed, 4_096).expect("sequential");
        let thr = vt_run(Kind::FaninThreaded, seed, 4_096).expect("threaded");
        assert_eq!(seq.digest, thr.digest, "seed {seed}");
        assert_eq!(seq.summary(), thr.summary(), "seed {seed}");
    }
}
