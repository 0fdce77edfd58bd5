//! Deriving degree bounds from access bandwidth (§5.1).
//!
//! "Each node has a bound on the number of communication sessions it can
//! handle, which we call degree. This may due to the limited access
//! bandwidth or workload of end systems." This module closes that loop: a
//! node forwarding a media stream of `stream_kbps` can serve at most
//! `uplink / stream` downstream children (plus the one parent link its
//! downlink easily covers), so the degree bound *is* a bandwidth statement.
//!
//! The pool uses it to cap a host's fan-out across a multipath session's
//! trees (`pool::task_manager::fanout_cap`).

/// The degree a node can sustain for a given per-link stream rate: one
/// parent link plus `floor(uplink / stream)` children, never below 1 (a
/// node can always at least receive).
pub fn degree_for_stream(up_kbps: f64, stream_kbps: f64) -> u32 {
    assert!(stream_kbps > 0.0, "stream rate must be positive");
    let children = (up_kbps / stream_kbps).floor().max(0.0) as u32;
    (children + 1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_scales_with_uplink() {
        // 400 kbps uplink, 128 kbps stream → 3 children + parent = 4.
        assert_eq!(degree_for_stream(400.0, 128.0), 4);
        // Modem: no children, but can still receive.
        assert_eq!(degree_for_stream(50.0, 128.0), 1);
        // T1 at 128 kbps: 12 children + parent.
        assert_eq!(degree_for_stream(1544.0, 128.0), 13);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stream_rejected() {
        degree_for_stream(100.0, 0.0);
    }
}
