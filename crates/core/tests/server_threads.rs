//! A server is exactly the threads it is configured with: each has its NIC
//! queue and its NVMe queue pair, and no dormant thread holds either.
//! `ServerConfig::max_threads` is read by nothing, so neither its default
//! nor a value below `threads` changes what is built.

use reflex_core::{ServerConfig, Testbed};
use reflex_flash::QpId;

#[test]
fn a_server_builds_only_its_threads() {
    for threads in [1u32, 2, 12] {
        let defaults = ServerConfig::default().max_threads;
        for max_threads in [defaults, threads - 1] {
            let mut tb = Testbed::builder()
                .server(ServerConfig {
                    threads,
                    max_threads,
                    ..ServerConfig::default()
                })
                .build();
            let case = format!("threads {threads}, max_threads {max_threads}");
            let server = tb.world().server();
            assert_eq!(server.threads().len(), threads as usize, "{case}");
            let machine = server.machine();
            assert_eq!(tb.world().fabric().queue_count(machine), threads, "{case}");
            // Queue pairs are numbered from 0 as the device creates them.
            let next = tb.world_mut().device_at_mut(0).create_queue_pair();
            assert_eq!(next, QpId(threads), "{case}");
        }
    }
}
