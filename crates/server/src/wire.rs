//! Binary wire-protocol contract tests, run the way `msropm_serve`
//! boots the server: through [`crate::ServerConfig::builder`], with two
//! event loops. Connections opened back to back round-robin onto
//! different loops, so each contract below (typed errors, admission,
//! cancellation, drain) is checked across loops as well as within one.

mod tests {
    use crate::proto::{self, write_frame, ErrorCode, FrontendKind, Request, Response};
    use crate::reactor::tests::{big_job, small_job, RawClient};
    use crate::{Frontend, JobState, ServerConfig};
    use msropm_graph::generators;
    use std::io::Write;
    use std::time::Duration;

    /// One worker, a small queue and two event loops.
    fn two_loop_server() -> Frontend {
        ServerConfig::builder()
            .workers(1)
            .queue_capacity(8)
            .cache_capacity(4)
            .loops(2)
            .bind("127.0.0.1:0")
            .expect("bind ephemeral port")
    }

    /// Two connections, one per event loop.
    fn connect_pair(server: &Frontend) -> (RawClient, RawClient) {
        let a = RawClient::connect(server.local_addr());
        let b = RawClient::connect(server.local_addr());
        (a, b)
    }

    /// Polls `job_id`'s state from `c` until it is `want` (or ~2 s pass).
    fn await_state(c: &mut RawClient, tenant: &str, job_id: u64, want: JobState) -> JobState {
        let mut state = JobState::Queued;
        for _ in 0..200 {
            c.send(&Request::Status {
                tenant: tenant.into(),
                job_id,
            });
            match c.recv() {
                Response::StatusReply { state: s, .. } => state = s,
                Response::Report(r) => panic!("unexpected report on the status connection: {r:?}"),
                other => panic!("unexpected frame {other:?}"),
            }
            if state == want {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        state
    }

    #[test]
    fn submit_streams_a_report_with_matching_hash() {
        let server = two_loop_server();
        let g = generators::kings_graph(4, 4);
        let (mut other, mut c) = connect_pair(&server);
        let job_id = c.submit("t0", &g, small_job(4, 7));
        let report = c.wait_report(job_id);
        assert_eq!(report.job_id, job_id);
        assert_eq!(report.graph_hash, msropm_graph::graph_hash(&g));
        assert_eq!(report.ranked.len(), 4);
        // Conflict counts are verifiable client-side from the coloring.
        for lane in &report.ranked {
            assert_eq!(proto::verify_lane(&g, lane), Some(lane.conflicts));
        }
        // The job is visible from the other loop's connection.
        assert_eq!(
            await_state(&mut other, "t0", job_id, JobState::Done),
            JobState::Done
        );
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_do_not_kill_the_connection() {
        let server = two_loop_server();
        let g = generators::kings_graph(4, 4);
        let (mut a, mut b) = connect_pair(&server);
        for c in [&mut a, &mut b] {
            // Well-framed garbage: unknown verb byte.
            write_frame(&mut c.stream, &[0x55, 1, 2, 3]).unwrap();
            c.stream.flush().unwrap();
            match c.recv() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVerb),
                other => panic!("expected UnsupportedVerb, got {other:?}"),
            }
            // Well-framed truncated submit body: Malformed, still alive.
            write_frame(&mut c.stream, &[0x01, 0xFF]).unwrap();
            c.stream.flush().unwrap();
            match c.recv() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
        // Both connections still serve real requests afterwards.
        for (i, c) in [&mut a, &mut b].into_iter().enumerate() {
            let job_id = c.submit("t", &g, small_job(2, i as u64));
            assert_eq!(c.wait_report(job_id).job_id, job_id);
            c.send(&Request::Stats);
            match c.recv_reply() {
                Response::StatsReply(s) => {
                    assert_eq!(s.frontend, FrontendKind::Reactor);
                    assert_eq!(s.connections, 2);
                }
                other => panic!("expected StatsReply, got {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn cancelled_queued_job_never_reports() {
        let server = two_loop_server();
        let g = generators::kings_graph(6, 6);
        let (mut c, mut ctl) = connect_pair(&server);
        // Job A occupies the single worker; job B sits in the queue.
        let a = c.submit("t", &g, big_job(1));
        let b = c.submit("t", &g, small_job(4, 2));
        // The owning tenant cancels B from a connection on the other loop.
        ctl.send(&Request::Cancel {
            tenant: "t".into(),
            job_id: b,
        });
        match ctl.recv() {
            Response::CancelReply { job_id, .. } => assert_eq!(job_id, b),
            other => panic!("expected CancelReply, got {other:?}"),
        }
        // A reports; B is observed cancelled at pickup and settles.
        assert_eq!(c.wait_report(a).job_id, a);
        assert_eq!(
            await_state(&mut ctl, "t", b, JobState::Cancelled),
            JobState::Cancelled
        );
        // Exactly one report was streamed, and none is stashed for B.
        assert_eq!(server.reports_streamed(), 1);
        assert!(c.stash.iter().all(|r| r.job_id != b));
        server.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_submits_with_draining_but_drains_inflight_reports() {
        let server = two_loop_server();
        // A job long enough that the drain window below is wide open
        // when the late submits land.
        let g = generators::kings_graph(10, 10);
        let (mut idle, mut c) = connect_pair(&server);
        let job_id = c.submit("t", &g, big_job(3));
        // Drain in a background thread while both clients are attached;
        // a late submit on either loop gets the typed Draining rejection
        // (not an admission, not a hard disconnect), and the in-flight
        // job's report still arrives.
        let drainer = std::thread::spawn(move || server.shutdown());
        std::thread::sleep(Duration::from_millis(100));
        for late in [&mut idle, &mut c] {
            match late.try_submit("t", &g, small_job(2, 99)) {
                Response::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::Draining, "drain rejections are typed")
                }
                other => panic!("expected Draining rejection, got {other:?}"),
            }
        }
        assert_eq!(c.wait_report(job_id).job_id, job_id);
        drainer.join().expect("drain completes");
    }
}
