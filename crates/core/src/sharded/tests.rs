//! Unit tests of the shard gate (they need the private `enter`).

use super::*;
use crate::ControlPlane;
use std::sync::Barrier;

#[test]
fn fnv_is_stable() {
    // Pinned values: shard placement must never change across builds.
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"tenant-0"), fnv1a(b"tenant-0"));
    assert_ne!(fnv1a(b"tenant-0"), fnv1a(b"tenant-1"));
}

#[test]
fn routing_is_deterministic_and_total() {
    let svc = TwineBuilder::new().build_sharded(4);
    for name in ["a", "b", "session-42", "zzz"] {
        let s = svc.shard_of(name);
        assert!(s < 4);
        assert_eq!(s, svc.shard_of(name));
    }
}

#[test]
fn unknown_session_errors() {
    let svc = TwineBuilder::new().build_sharded(2);
    assert!(matches!(
        svc.invoke("ghost", "f", &[]),
        Err(TwineError::Session(_))
    ));
    assert!(svc.session_stats("ghost").is_none());
    assert!(svc.close_session("ghost").expect("shard alive").is_none());
}

/// Occupies shard 0's gate from its own thread until released, then
/// runs `then` still inside it. Returns once the holder is inside.
fn hold_shard_0(
    svc: &Arc<ShardedService>,
    then: impl FnOnce() + Send + 'static,
) -> (Arc<Barrier>, std::thread::JoinHandle<()>) {
    let entered = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let holder = {
        let (svc, entered, release) = (Arc::clone(svc), Arc::clone(&entered), Arc::clone(&release));
        std::thread::spawn(move || {
            svc.enter(0, None, |_| {
                entered.wait();
                release.wait();
                then();
            })
            .expect("holder enters a healthy shard");
        })
    };
    entered.wait();
    (release, holder)
}

/// Block until `n` tickets have been handed out on shard 0: a caller
/// has *arrived* once it holds its ticket.
fn await_tickets(svc: &ShardedService, n: u64) {
    while svc.shards[0].next.load(Ordering::Relaxed) < n {
        std::thread::yield_now();
    }
}

#[test]
fn gate_serves_callers_in_arrival_order() {
    let svc = Arc::new(TwineBuilder::new().build_sharded(1));
    let (release, holder) = hold_shard_0(&svc, || {});
    let order = Arc::new(Mutex::new(Vec::new()));
    let waiters: Vec<_> = (0..6u64)
        .map(|k| {
            let (svc2, order) = (Arc::clone(&svc), Arc::clone(&order));
            let h = std::thread::spawn(move || {
                svc2.enter(0, None, |_| order.lock().unwrap().push(k))
                    .expect("healthy shard");
            });
            // Holder has ticket 0; waiter k arrives with ticket k + 1.
            await_tickets(&svc, k + 2);
            h
        })
        .collect();
    release.wait();
    holder.join().unwrap();
    for w in waiters {
        w.join().unwrap();
    }
    assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4, 5]);
}

#[test]
fn full_queue_sheds_load_commands_but_never_control_commands() {
    let control = ControlPlane {
        queue_depth: Some(1),
        ..ControlPlane::default()
    };
    let svc = Arc::new(TwineBuilder::new().control_plane(control).build_sharded(1));
    let (release, holder) = hold_shard_0(&svc, || {});
    let overloaded = |r: Result<Vec<Value>, TwineError>| {
        matches!(
            r,
            Err(TwineError::Overloaded(Overload::QueueFull {
                shard: 0,
                depth: 1
            }))
        )
    };
    // One load command fits behind the running one...
    let queued = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.invoke("ghost", "f", &[]))
    };
    await_tickets(&svc, 2);
    // ...the next is shed at once...
    assert!(overloaded(svc.invoke("ghost", "f", &[])));
    // ...while a control command joins the line regardless...
    let admin = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.session_stats("ghost"))
    };
    await_tickets(&svc, 3);
    // ...and, waiting there, counts against the depth like any other.
    assert!(overloaded(svc.invoke("ghost", "f", &[])));
    release.wait();
    holder.join().unwrap();
    assert!(matches!(
        queued.join().unwrap(),
        Err(TwineError::Session(_))
    ));
    assert!(admin.join().unwrap().is_none());
    assert_eq!(svc.control_stats().queue_rejections, 2);
}

#[test]
fn panic_inside_a_shard_fails_it_typed_and_spares_the_others() {
    let wasm = twine_minicc::compile_to_bytes("int double_it(int x) { return 2 * x; }")
        .expect("guest compiles");
    let svc = Arc::new(TwineBuilder::new().build_sharded(2));
    let on = |shard: usize| {
        (0..)
            .map(|k| format!("tenant-{k}"))
            .find(|n| svc.shard_of(n) == shard)
            .unwrap()
    };
    let (doomed, spared) = (on(0), on(1));
    svc.open_session(&doomed, &wasm).unwrap();
    svc.open_session(&spared, &wasm).unwrap();
    let arrived = svc.shards[0].next.load(Ordering::Relaxed);

    let (release, holder) = hold_shard_0(&svc, || panic!("guest bug (expected by this test)"));
    // A caller already in line when the command panics must not hang.
    let waiter = {
        let (svc, doomed) = (Arc::clone(&svc), doomed.clone());
        std::thread::spawn(move || svc.invoke(&doomed, "double_it", &[Value::I32(1)]))
    };
    await_tickets(&svc, arrived + 2);
    release.wait();
    assert!(
        holder.join().is_err(),
        "the panic unwinds through its own caller"
    );

    let failed =
        |e: TwineError| matches!(&e, TwineError::Session(m) if m.starts_with("shard 0 failed"));
    assert!(failed(waiter.join().unwrap().unwrap_err()));
    assert!(failed(
        svc.invoke(&doomed, "double_it", &[Value::I32(1)])
            .unwrap_err()
    ));
    assert!(failed(
        svc.close_session(&doomed).err().expect("failed shard")
    ));
    assert!(svc.session_stats(&doomed).is_none());
    assert_eq!(svc.shard_stats()[0].sessions, 0);

    assert_eq!(
        svc.invoke(&spared, "double_it", &[Value::I32(21)]).unwrap(),
        [Value::I32(42)]
    );
    assert_eq!(svc.shard_stats()[1].sessions, 1);
}
