//! Isolated layer drives: host nanoseconds per operation of single
//! layers, measured by calling their public functions in a loop.
//!
//! Inside `run_fleet` (and below a `HighLight::read`) the layers cannot
//! be told apart from outside, so the traced run asks each one alone
//! what its step costs. The numbers are wall-clock medians of three
//! passes; they qualify the end-to-end host metrics, they are not
//! bounded themselves.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use highlight::blockmap::BlockMapDev;
use highlight::segcache::{EjectPolicy, SegCache};
use highlight::{TertiaryIo, TsegTable, UniformMap};
use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
use hl_lfs::ondisk::{cksum, Finfo, SegSummary};
use hl_server::proto::{decode_request, decode_response, encode_request, encode_response};
use hl_server::{
    Connection, FleetConfig, PoolState, Req, RequestFrame, ResponseFrame, ShardedEngine, WakeHint,
};
use hl_sim::{Actor, Scheduler, SimTime, Step};
use hl_trace::{Class, Expectations, Tracer};
use hl_vdev::{BlockDev, Disk, DiskProfile, BLOCK_SIZE};
use hl_workload::ZipfStore;

use crate::report::Metric;
use crate::stats::median;

/// Requests of the rep's sequence each server drive replays.
const REPLAY: usize = 20_000;

/// Median over three passes of the wall nanoseconds `pass` takes per
/// item; `pass` returns how many items it processed.
fn ns_per(mut pass: impl FnMut() -> u64) -> f64 {
    let mut xs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let n = pass();
            t.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    median(&mut xs)
}

// ---------------------------------------------------------------------
// Drives every workload reports: lfs on-disk format, block map, request
// tickets, the disk model, the scheduler, the tracer.
// ---------------------------------------------------------------------

pub fn common() -> Vec<Metric> {
    let mut out = ondisk();
    out.extend(core_engine());
    out.push(disk_block());
    out.extend(scheduler());
    out.extend(tracer());
    out
}

fn ondisk() -> Vec<Metric> {
    let block = vec![0xa5u8; BLOCK_SIZE];
    let cksum_ns = ns_per(|| {
        for _ in 0..2_000 {
            black_box(cksum(black_box(&block)));
        }
        2_000
    });
    // The summary of a full partial segment: 20 files of 10 blocks.
    let mut summary = SegSummary::new(123, 42);
    for ino in 0..20 {
        summary.finfos.push(Finfo {
            ino,
            version: 1,
            lastlength: BLOCK_SIZE as u32,
            blocks: (0..10).collect(),
        });
    }
    summary.inode_addrs = (0..8).collect();
    let payload = vec![0xa5u8; (summary.data_blocks() + 8) * BLOCK_SIZE];
    let mut buf = vec![0u8; BLOCK_SIZE];
    let encode_ns = ns_per(|| {
        for _ in 0..20 {
            let datasum = SegSummary::datasum_of(black_box(&payload));
            summary.encode(black_box(&mut buf), datasum);
        }
        20
    });
    let decode_ns = ns_per(|| {
        for _ in 0..2_000 {
            black_box(SegSummary::decode(black_box(&buf)).expect("decodes what encode wrote"));
        }
        2_000
    });
    vec![
        Metric::new("lfs.ondisk.cksum_ns_per_kb", cksum_ns / 4.0, "ns/KB"),
        Metric::new("lfs.ondisk.summary_encode_us", encode_ns / 1e3, "us"),
        Metric::new("lfs.ondisk.summary_decode_us", decode_ns / 1e3, "us"),
    ]
}

/// A one-shard engine on its private scheduler with tertiary segment
/// `(0, 0)` fetched, so a demand for it is a resident hit.
fn resident_engine() -> (Rc<TertiaryIo>, Rc<Disk>, UniformMap, u32) {
    let disk = Rc::new(Disk::new(DiskProfile::RZ57, 2 + 64 * 256, None));
    let map = UniformMap::new(2, 256, 64, 4, 8);
    let jb = Jukebox::new(
        JukeboxConfig {
            volumes: 4,
            segments_per_volume: 8,
            ..JukeboxConfig::hp6300_paper()
        },
        None,
    );
    let seg_bytes = jb.segment_bytes();
    jb.poke_segment(0, 0, &vec![0x5au8; seg_bytes])
        .expect("poke a blank segment");
    let cache = Rc::new(RefCell::new(SegCache::new(
        (50..54).collect(),
        EjectPolicy::Lru,
    )));
    let tio = Rc::new(TertiaryIo::new(
        map,
        Rc::new(jb),
        disk.clone(),
        cache,
        Rc::new(RefCell::new(TsegTable::new())),
    ));
    let seg = map.tert_seg(0, 0);
    {
        let tseg = tio.tseg();
        let mut t = tseg.borrow_mut();
        t.seg_mut(seg).avail_bytes = seg_bytes as u32;
        t.volume_mut(0).next_slot = 1;
    }
    tio.demand_fetch(0, seg)
        .expect("cold fetch of the poked segment");
    (tio, disk, map, seg)
}

fn core_engine() -> Vec<Metric> {
    let (tio, disk, map, seg) = resident_engine();
    let session = tio.session(3);
    let mut now = tio.pump();
    let ticket_ns = ns_per(|| {
        for _ in 0..20_000 {
            now += 1;
            let t = session.enqueue_demand(now, seg);
            if !t.is_done() {
                tio.pump();
            }
            black_box(t.fetch_result().is_ok());
        }
        20_000
    });
    let dev = BlockMapDev::new(disk, map, tio);
    let mut buf = vec![0u8; BLOCK_SIZE];
    let route_ns = ns_per(|| {
        for _ in 0..100_000 {
            black_box(dev.peek(black_box(100), black_box(&mut buf)).is_ok());
        }
        100_000
    });
    vec![
        Metric::new("core.requests.ticket_ns", ticket_ns, "ns"),
        Metric::new("core.blockmap.route_ns", route_ns, "ns"),
    ]
}

fn disk_block() -> Metric {
    let blocks = 16_384u64;
    let disk = Disk::new(DiskProfile::RZ57, blocks, None);
    let mut buf = vec![0u8; BLOCK_SIZE];
    let mut at: SimTime = 0;
    let ns = ns_per(|| {
        for b in 0..blocks {
            // A stride that is co-prime with the size: every block once,
            // never sequential, so the seek model runs each time.
            let slot = disk
                .read(at, (b * 4_099) % blocks, &mut buf)
                .expect("in-range read of a healthy disk");
            at = slot.end;
        }
        blocks
    });
    Metric::new("vdev.disk.host_ns_per_block", ns, "ns")
}

/// Yields `left` times, one simulated millisecond apart.
struct Ticker {
    left: u32,
}

impl Actor<()> for Ticker {
    fn step(&mut self, _: &mut (), now: SimTime) -> Step {
        self.left -= 1;
        if self.left == 0 {
            Step::Done
        } else {
            Step::Yield(now + 1_000)
        }
    }
}

/// Wakes its peer and parks, `left` times.
struct PingPong {
    peer: Rc<RefCell<Option<hl_sim::ActorId>>>,
    waker: hl_sim::Waker,
    left: u32,
}

impl Actor<()> for PingPong {
    fn step(&mut self, _: &mut (), now: SimTime) -> Step {
        self.left -= 1;
        let peer = self.peer.borrow().expect("peer id set before the run");
        self.waker.wake(peer, now + 1);
        if self.left == 0 {
            Step::Done
        } else {
            Step::Park
        }
    }
}

fn scheduler() -> Vec<Metric> {
    // As many runnable actors as the resident fleet keeps (100 clients +
    // 8 workers + engine actors).
    let step_ns = ns_per(|| {
        let mut sched: Scheduler<()> = Scheduler::new();
        for i in 0..128 {
            sched.spawn_at(i, Ticker { left: 400 });
        }
        sched.run(&mut ());
        128 * 400
    });
    let park_wake_ns = ns_per(|| {
        let mut sched: Scheduler<()> = Scheduler::new();
        let rounds = 20_000;
        let ids = [Rc::new(RefCell::new(None)), Rc::new(RefCell::new(None))];
        let a = sched.spawn_at(
            0,
            PingPong {
                peer: ids[1].clone(),
                waker: sched.waker(),
                left: rounds,
            },
        );
        let b = sched.spawn_parked(PingPong {
            peer: ids[0].clone(),
            waker: sched.waker(),
            left: rounds,
        });
        *ids[0].borrow_mut() = Some(a);
        *ids[1].borrow_mut() = Some(b);
        sched.run(&mut ());
        2 * rounds as u64
    });
    vec![
        Metric::new("sim.sched.host_ns_per_step", step_ns, "ns"),
        Metric::new("sim.sched.park_wake_ns", park_wake_ns, "ns"),
    ]
}

fn tracer() -> Vec<Metric> {
    // The events one queued fetch emits: span open, queue depths,
    // queuing, device I/O, span close.
    const SPANS: u64 = 8_000;
    let emit = |tracer: &Tracer| {
        for i in 0..SPANS {
            let at = i * 10;
            let span = tracer.open_span(at, Class::Demand, Some(i));
            tracer.queue_depth(at, hl_trace::QueueId::Request, 1);
            tracer.queuing(at + 2, span, Class::Demand, at, at + 2);
            tracer.queue_depth(at + 2, hl_trace::QueueId::Request, 0);
            tracer.dev_io(hl_trace::Lane::Drive(0), at + 2, at + 9);
            tracer.close_span(at + 9, span, true);
        }
        6 * SPANS
    };
    let emit_ns = ns_per(|| emit(&Tracer::new()));
    let filled = Tracer::new();
    emit(&filled);
    let expect = Expectations::quiesced([2 * SPANS, 0, 0, 0, 0], 1).with_drive_lanes(1);
    let check_ns = ns_per(|| {
        black_box(hl_trace::tracecheck(&filled, &expect).len());
        1
    });
    vec![
        Metric::new("trace.emit_ns_per_event", emit_ns, "ns"),
        Metric::new("trace.check_ms", check_ns / 1e6, "ms"),
    ]
}

// ---------------------------------------------------------------------
// hl-server drives: the fleet's own request sequence through each
// layer.
// ---------------------------------------------------------------------

/// The first [`REPLAY`] request frames `run_fleet(cfg)` has its clients
/// send, client by client: one Zipfian stream per tenant, as the fleet
/// derives them.
fn request_frames(cfg: &FleetConfig) -> Vec<RequestFrame> {
    let objects = (cfg.spec.objects() * cfg.shards as u64) as u32;
    let mut stores: Vec<ZipfStore> = (0..cfg.tenants)
        .map(|t| {
            ZipfStore::new(
                cfg.seed ^ (t as u64).wrapping_mul(0xa076_1d64_78bd_642f),
                objects,
                cfg.zipf_exponent,
            )
        })
        .collect();
    let mut frames = Vec::with_capacity(REPLAY);
    'clients: for c in 0..cfg.clients {
        let tenant = c % cfg.tenants;
        for i in 0..cfg.requests_per_client {
            if frames.len() == REPLAY {
                break 'clients;
            }
            let obj = stores[tenant as usize].next_object() as u64;
            let req = match cfg.storm.filter(|s| s.tenant == tenant) {
                Some(s) => Req::Scan {
                    start: obj,
                    count: s.width,
                },
                None => Req::Get { obj },
            };
            frames.push(RequestFrame {
                tenant,
                req_id: ((c as u64) << 32) | (i as u64 + 1),
                req,
            });
        }
    }
    frames
}

pub fn server(cfg: &FleetConfig) -> Vec<Metric> {
    let frames = request_frames(cfg);
    let n = frames.len() as u64;

    let mut wire = Vec::new();
    let encode_ns = ns_per(|| {
        for f in &frames {
            wire.clear();
            encode_request(black_box(f), &mut wire);
            encode_response(
                &ResponseFrame {
                    req_id: f.req_id,
                    result: Ok(f.req_id),
                },
                &mut wire,
            );
            black_box(wire.len());
        }
        n
    });
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for f in &frames {
        encode_request(f, &mut requests);
        encode_response(
            &ResponseFrame {
                req_id: f.req_id,
                result: Ok(f.req_id),
            },
            &mut responses,
        );
    }
    let decode_ns = ns_per(|| {
        let (mut rq, mut rs) = (&requests[..], &responses[..]);
        for _ in &frames {
            let (f, used) = decode_request(rq).expect("well-formed").expect("complete");
            rq = &rq[used..];
            let (r, used) = decode_response(rs).expect("well-formed").expect("complete");
            rs = &rs[used..];
            black_box((f.req_id, r.req_id));
        }
        n
    });

    let conns: Vec<Connection> = (0..cfg.clients).map(Connection::new).collect();
    let conn_of = |f: &RequestFrame| (f.req_id >> 32) as usize;
    let roundtrip_ns = ns_per(|| {
        for f in &frames {
            let c = &conns[conn_of(f)];
            c.send_request(f);
            let got = c.recv_request().expect("well-formed").expect("complete");
            c.send_response(&ResponseFrame {
                req_id: got.req_id,
                result: Ok(0),
            });
            black_box(c.recv_response().expect("well-formed").expect("complete"));
        }
        n
    });

    let dispatch_ns = ns_per(|| {
        let mut pool = PoolState::new(cfg.pool, cfg.workers);
        for (i, f) in frames.iter().enumerate() {
            let w = match pool.submit(conn_of(f) as u32) {
                WakeHint::One(w) => w,
                WakeHint::All => i % cfg.workers,
            };
            black_box(pool.next_for(w));
        }
        n
    });

    let mut sched: Scheduler<()> = Scheduler::new();
    let engine = ShardedEngine::build(cfg.seed, cfg.shards, cfg.spec, &mut sched);
    let locate_ns = ns_per(|| {
        for f in &frames {
            let obj = match f.req {
                Req::Get { obj } | Req::Put { obj } => obj,
                Req::Scan { start, .. } => start,
                Req::Stat => 0,
            };
            black_box(engine.locate(black_box(obj)));
        }
        n
    });

    vec![
        Metric::new("server.proto.encode_ns", encode_ns, "ns"),
        Metric::new("server.proto.decode_ns", decode_ns, "ns"),
        Metric::new("server.connection.roundtrip_ns", roundtrip_ns, "ns"),
        Metric::new("server.pool.dispatch_ns", dispatch_ns, "ns"),
        Metric::new("server.shard.locate_ns", locate_ns, "ns"),
    ]
}

/// Host ns one resident `Get` is expected to cost, from the isolated
/// drives: the frame both ways over its connection (which contains the
/// four proto calls), pool dispatch, shard routing, one engine ticket,
/// and the scheduler steps the request causes — two of the client's and,
/// with wake-all dispatch, one per worker.
pub fn attributed_ns_per_request(server: &[Metric], common: &[Metric], workers: usize) -> f64 {
    let get = |metrics: &[Metric], name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    get(server, "server.connection.roundtrip_ns")
        + get(server, "server.pool.dispatch_ns")
        + get(server, "server.shard.locate_ns")
        + get(common, "core.requests.ticket_ns")
        + (2 + workers) as f64 * get(common, "sim.sched.host_ns_per_step")
}
