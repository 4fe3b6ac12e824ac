//! Workloads driven by an app (`AppDriver`): a request issues when the
//! app asks, an idle connection is asked again at each completion, and
//! the app is finished when every connection idles, at its last
//! completion or the end of the compute it named after it.

use std::cell::RefCell;
use std::rc::Rc;

use reflex_core::{AppDriver, Testbed, TestbedError, WorkloadSpec};
use reflex_qos::{TenantClass, TenantId};
use reflex_sim::{SimDuration, SimTime};

/// What the app saw: `next` calls `(conn, now)` and issues `(conn, now)`.
type Log = Rc<RefCell<(Vec<(usize, SimTime)>, Vec<(usize, SimTime)>)>>;

/// Connection 0 reads `reads` times, each `compute` after the last
/// completed, then computes once more and is done. Connection 1 idles
/// until connection 0's second completion, then writes once.
#[derive(Debug)]
struct Toy {
    reads: u32,
    completed: u32,
    compute: SimDuration,
    wrote: bool,
    done: bool,
    log: Log,
}

impl AppDriver for Toy {
    fn next(&mut self, conn: usize, now: SimTime) -> Option<SimTime> {
        self.log.borrow_mut().0.push((conn, now));
        if conn == 1 {
            return (self.completed >= 2 && !self.wrote).then_some(now);
        }
        if now > SimTime::ZERO {
            self.completed += 1;
        }
        if self.done {
            return None;
        }
        self.done = self.completed == self.reads;
        Some(now + self.compute)
    }

    fn request(&mut self, conn: usize, now: SimTime) -> Option<(bool, u64)> {
        self.log.borrow_mut().1.push((conn, now));
        if conn == 1 {
            self.wrote = true;
            return Some((false, 1 << 20));
        }
        (!self.done).then_some((true, 4096 * u64::from(self.completed)))
    }
}

fn spec(conns: u32) -> WorkloadSpec {
    let mut spec = WorkloadSpec::closed_loop("app", TenantId(1), TenantClass::BestEffort, 1);
    spec.conns = conns;
    spec.client_threads = conns;
    spec
}

#[test]
fn an_app_issues_when_it_asks_and_finishes_after_its_compute() {
    let log = Log::default();
    let compute = SimDuration::from_micros(50);
    let app = Toy {
        reads: 3,
        completed: 0,
        compute,
        wrote: false,
        done: false,
        log: log.clone(),
    };
    let mut tb = Testbed::builder().seed(5).build();
    tb.begin_measurement();
    tb.add_driven(spec(2), Box::new(app)).expect("admitted");
    tb.run(SimDuration::from_millis(5));
    let (nexts, issues) = &*log.borrow();
    let completions: Vec<SimTime> = (nexts.iter())
        .filter(|&&(conn, now)| conn == 0 && now > SimTime::ZERO)
        .map(|&(_, now)| now)
        .collect();
    assert_eq!(completions.len(), 3, "{nexts:?}");
    // Each read issues its compute after the last one completed; the
    // first after the compute from the start.
    let reads: Vec<SimTime> = (issues.iter())
        .filter(|&&(conn, _)| conn == 0)
        .map(|&(_, now)| now)
        .collect();
    assert_eq!(reads[0], SimTime::ZERO + compute);
    assert_eq!(reads[1], completions[0] + compute);
    assert_eq!(reads[2], completions[1] + compute);
    // The idle connection wrote at the second completion, when it was
    // asked again, and was asked at every completion before.
    assert!(issues.contains(&(1, completions[1])), "{issues:?}");
    assert!(nexts.contains(&(1, completions[0])), "{nexts:?}");
    // Done at the compute after the last read, which issued nothing.
    assert_eq!(reads[3], completions[2] + compute);
    assert_eq!(tb.app_finished("app"), Some(completions[2] + compute));
    let report = tb.report();
    let app = report.workload("app");
    assert_eq!((app.issued, app.read_latency.count()), (4, 3));
    assert_eq!(app.write_latency.count(), 1);
}

#[test]
fn an_app_runs_until_asked_and_is_not_finished_before() {
    let log = Log::default();
    let app = Toy {
        reads: 2,
        completed: 0,
        compute: SimDuration::from_millis(3),
        wrote: false,
        done: false,
        log,
    };
    let mut tb = Testbed::builder().seed(5).build();
    tb.add_driven(spec(2), Box::new(app)).expect("admitted");
    tb.run(SimDuration::from_millis(4));
    assert_eq!(tb.app_finished("app"), None);
    tb.run(SimDuration::from_millis(10));
    assert!(tb.app_finished("app").is_some());
    assert_eq!(tb.app_finished("no such app"), None);
}

#[test]
fn a_driven_workload_is_a_closed_loop_at_depth_1() {
    let toy = || Toy {
        reads: 1,
        completed: 0,
        compute: SimDuration::ZERO,
        wrote: false,
        done: false,
        log: Log::default(),
    };
    let mut tb = Testbed::builder().build();
    let deep = WorkloadSpec::closed_loop("deep", TenantId(1), TenantClass::BestEffort, 2);
    let open = WorkloadSpec::open_loop("open", TenantId(2), TenantClass::BestEffort, 1e3);
    for spec in [deep, open] {
        let refused = tb.add_driven(spec, Box::new(toy()));
        assert!(matches!(refused, Err(TestbedError::InvalidSpec(_))));
    }
}
