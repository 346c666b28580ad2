//! File-descriptor exhaustion: with the fd table full, a pending
//! connection makes every `accept()` fail with `EMFILE`. The reactor
//! must count that, back off without spinning, and answer the waiting
//! client once fds are free again.
//!
//! This binary holds one test on purpose: it lowers the process-wide
//! `RLIMIT_NOFILE`, which would break any test running beside it.
//! Linux only (it reads the reactor thread's CPU time from `/proc`).

use fia_defense::DefensePipeline;
use fia_linalg::Matrix;
use fia_models::LogisticRegression;
use fia_serve::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use fia_serve::{PredictionServer, ServeConfig};
use fia_vfl::{VerticalPartition, VflSystem};
use std::fs::File;
use std::io::{Read, Seek};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

fn set_nofile(cur: u64, max: u64) {
    let rc = unsafe { setrlimit(RLIMIT_NOFILE, &Rlimit { cur, max }) };
    assert_eq!(rc, 0, "setrlimit: {}", std::io::Error::last_os_error());
}

/// The `/proc` stat file of the first thread whose name starts with
/// `prefix`, opened now so reading it later needs no new fd. A new
/// thread names itself, so this polls briefly.
fn thread_stat(prefix: &str) -> File {
    for _ in 0..500 {
        for task in std::fs::read_dir("/proc/self/task").unwrap() {
            let dir = task.unwrap().path();
            let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if comm.starts_with(prefix) {
                return File::open(dir.join("stat")).unwrap();
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("no thread named {prefix}*");
}

/// User + system CPU ticks the thread has used so far.
fn cpu_ticks(stat: &mut File) -> u64 {
    let mut text = String::new();
    stat.rewind().unwrap();
    stat.read_to_string(&mut text).unwrap();
    // Fields after the parenthesised name: state is field 3, so utime
    // (14) and stime (15) are the 12th and 13th.
    let fields: Vec<&str> = text[text.rfind(')').unwrap() + 2..].split(' ').collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn exhausted_fds_are_counted_paced_and_recovered() {
    if !cfg!(target_os = "linux") {
        return;
    }
    let w = Matrix::from_fn(4, 2, |i, j| 0.3 * (i as f64 + 1.0) - 0.2 * j as f64);
    let model = LogisticRegression::from_parameters(w, vec![0.0; 2], 2);
    let global = Matrix::from_fn(16, 4, |i, j| ((i + j) % 5) as f64 * 0.2);
    let system = VflSystem::from_global(model, VerticalPartition::contiguous(&[2, 2]), &global);
    let server = PredictionServer::spawn(
        Arc::new(system),
        Arc::new(DefensePipeline::new()),
        ServeConfig::default(),
    )
    .expect("bind");
    let mut stat = thread_stat("fia-serve-react");

    // Fill the fd table under a lowered limit, then free one fd for the
    // client: the server has none left to accept it with.
    let mut old = Rlimit { cur: 0, max: 0 };
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut old) }, 0);
    let in_use = std::fs::read_dir("/proc/self/fd").unwrap().count() as u64;
    set_nofile((in_use + 64).min(old.cur), old.max);
    let mut filler = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        filler.push(f);
    }
    filler.pop();
    let mut client = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut client, &encode_request(&Request::MetricsText).unwrap()).unwrap();

    let before = cpu_ticks(&mut stat);
    std::thread::sleep(Duration::from_millis(1000));
    let used = cpu_ticks(&mut stat) - before;

    drop(filler);
    set_nofile(old.cur, old.max);
    assert!(used <= 10, "reactor used {used} CPU ticks in 1000 ms");

    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let frame = read_frame(&mut client)
        .expect("the waiting client is answered")
        .expect("not closed");
    let Response::MetricsText(text) = decode_response(&frame).unwrap() else {
        panic!("expected MetricsText");
    };
    let exhausted: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("fia_serve_accept_errors_total{kind=\"exhausted\"} "))
        .unwrap_or_else(|| panic!("no exhausted series in:\n{text}"))
        .parse()
        .unwrap();
    assert!(exhausted >= 1, "exhausted accepts counted: {exhausted}");
    server.shutdown();
}
