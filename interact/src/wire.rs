//! One weak-integration protocol request, client to shard and back, and
//! its decomposition for the traced run.
//!
//! The client encodes the request, the shard closure decodes it and
//! calls `Dispatcher::handle_request`, and the response travels back
//! encoded. Every failure comes back from the shard closure as a value:
//! a panic there would kill the shard worker.
//!
//! In the traced run the shard closure then replays the layer calls the
//! request made — pin, data read, rule dispatch, window build, render —
//! against the same pinned data, a replay engine session over the same
//! rule base, and a private builder. The replay runs after the real
//! request has been timed, and its own time is subtracted from the op.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use active::{Engine, Event, SessionContext};
use builder::{BuiltWindow, InterfaceBuilder};
use custlang::Customization;
use geodb::query::DbEvent;
use geodb::{DbSnapshot, Epoch, Oid};
use gisui::{Dispatcher, Request, Response};

use crate::stats::{digest, micros, Ledger, Tally};
use activegis::{ServerSession, SessionServer};

/// Layer calls replayed for one request.
#[derive(Debug, Default)]
pub struct Replayed {
    pub ledger: Ledger,
    /// Sum of the replayed layer times (µs).
    pub layers_us: f64,
}

impl Replayed {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let us = micros(t.elapsed());
        self.ledger.add(name, us);
        self.layers_us += us;
        out
    }
}

/// What the shard closure measured in the traced run.
#[derive(Debug, Default)]
pub struct ShardTrace {
    pub decode_us: f64,
    pub handle_us: f64,
    pub encode_us: f64,
    /// Wall time of the whole closure, replay included.
    pub inside_us: f64,
    pub replay: Replayed,
    /// Wall time of the whole replay, taken out of the op time.
    pub replay_total_us: f64,
}

/// Shard-local replay state: an engine session over the shard's rule
/// base with the shard's strategy, and a builder with the paper library.
struct Replayer {
    engine: Engine<Customization>,
    builder: InterfaceBuilder,
    epoch: Epoch,
}

thread_local! {
    static REPLAYER: RefCell<Option<Replayer>> = const { RefCell::new(None) };
}

/// Run `f` with this shard thread's replayer, creating it on first use.
pub fn with_replayer<R>(d: &mut Dispatcher, f: impl FnOnce(&mut ReplayCtx<'_>) -> R) -> R {
    REPLAYER.with(|cell| {
        let mut slot = cell.borrow_mut();
        let r = slot.get_or_insert_with(|| {
            let mut engine = d.engine().rule_base().session();
            engine.set_strategy(d.engine().strategy());
            Replayer {
                engine,
                builder: InterfaceBuilder::with_paper_library(),
                epoch: d.db_epoch(),
            }
        });
        f(&mut ReplayCtx { d, r })
    })
}

pub struct ReplayCtx<'a> {
    d: &'a mut Dispatcher,
    r: &'a mut Replayer,
}

impl ReplayCtx<'_> {
    pub fn engine(&mut self) -> &mut Engine<Customization> {
        &mut self.r.engine
    }

    /// Pin the current snapshot, mirroring the dispatcher's winner-cache
    /// flush when the epoch moved.
    pub fn pin(&mut self, out: &mut Replayed) -> Arc<DbSnapshot> {
        let snap = out.time("geodb.pin_us", || self.d.snapshot());
        if snap.epoch() != self.r.epoch {
            self.r.epoch = snap.epoch();
            self.r.engine.invalidate_winner_cache();
        }
        snap
    }

    fn dispatch(
        &mut self,
        ctx: &SessionContext,
        event: DbEvent,
        out: &mut Replayed,
    ) -> Option<Customization> {
        let engine = &mut self.r.engine;
        out.time("active.dispatch_us", || {
            engine.dispatch(Event::Db(event), ctx)
        })
        .ok()
        .and_then(|o| o.customizations.into_iter().next())
    }

    fn build_render(
        &mut self,
        out: &mut Replayed,
        build: impl FnOnce(&InterfaceBuilder) -> Option<BuiltWindow>,
    ) -> Option<BuiltWindow> {
        let builder = &self.r.builder;
        let built = out.time("builder.build_us", || build(builder))?;
        out.ledger
            .add("builder.widgets_per_window", built.widget_count() as f64);
        out.time("uilib.render_us", || std::hint::black_box(built.to_ascii()));
        Some(built)
    }

    fn class(&mut self, ctx: &SessionContext, schema: &str, class: &str, out: &mut Replayed) {
        let snap = self.pin(out);
        let Ok(rows) = out.time("geodb.read_us", || snap.get_class(schema, class, false)) else {
            return;
        };
        out.ledger.add("geodb.rows_per_read", rows.len() as f64);
        let event = DbEvent::GetClass {
            schema: schema.to_string(),
            class: class.to_string(),
        };
        let cust = self.dispatch(ctx, event, out);
        self.build_render(out, |b| {
            b.class_window(schema, class, &rows, cust.as_ref()).ok()
        });
    }

    fn schema(&mut self, ctx: &SessionContext, schema: &str, out: &mut Replayed) {
        let snap = self.pin(out);
        let Ok(def) = out.time("geodb.read_us", || snap.get_schema(schema)) else {
            return;
        };
        out.ledger.add("geodb.rows_per_read", 1.0);
        let event = DbEvent::GetSchema {
            schema: schema.to_string(),
        };
        let cust = self.dispatch(ctx, event, out);
        let built = self.build_render(out, |b| {
            b.schema_window(&def, snap.catalog(), cust.as_ref()).ok()
        });
        for class in built.map(|b| b.auto_open).unwrap_or_default() {
            self.class(ctx, schema, &class, out);
        }
    }

    fn instance(&mut self, ctx: &SessionContext, oid: Oid, out: &mut Replayed) {
        let snap = self.pin(out);
        let Ok(inst) = out.time("geodb.read_us", || snap.get_value(oid)) else {
            return;
        };
        out.ledger.add("geodb.rows_per_read", 1.0);
        let schema = snap
            .locate(oid)
            .map(|(s, _)| s.to_string())
            .unwrap_or_default();
        let event = DbEvent::GetValue {
            schema,
            class: inst.class.clone(),
            oid,
        };
        let cust = self.dispatch(ctx, event, out);
        self.build_render(out, |b| b.instance_window(&snap, &inst, cust.as_ref()).ok());
    }

    /// Replay the layer calls `handle_request` made for `request`.
    pub fn request(&mut self, ctx: &SessionContext, request: &Request) -> Replayed {
        let mut out = Replayed::default();
        match request {
            Request::OpenSchema { schema } => self.schema(ctx, schema, &mut out),
            Request::OpenClass { schema, class } => self.class(ctx, schema, class, &mut out),
            Request::OpenInstance { oid } => self.instance(ctx, Oid(*oid), &mut out),
            _ => {}
        }
        out
    }
}

/// Digest of a response with the per-dispatcher window ids left out, so
/// a response can be compared with one a reference dispatcher produced.
pub fn response_digest(resp: &Response) -> Result<u64, String> {
    match resp {
        Response::Windows(ws) => Ok(digest(
            &ws.iter()
                .map(|w| (&w.kind, &w.title, w.visible, &w.ascii, w.oid.map(|o| o.0)))
                .collect::<Vec<_>>(),
        )),
        Response::Closed(ids) => Ok(digest(&("closed", ids.len()))),
        Response::Explanation(lines) => Ok(digest(&lines)),
        Response::Error { message } => Err(message.clone()),
    }
}

/// Send one protocol request for `session` and wait for its response.
/// Untraced, the op's round trip is its client-observed latency; traced,
/// the layer ledger of the op lands in `tally.ledger` and the replay
/// time is taken out of the op time. Returns the decoded response and
/// the op time (µs); protocol-level failures come back as `Err`.
pub fn request(
    server: &SessionServer,
    session: ServerSession,
    request: &Request,
    traced: bool,
    tally: &mut Tally,
) -> (Result<Response, String>, f64) {
    let t0 = Instant::now();
    let wire = gisui::encode(request);
    let encoded = Instant::now();
    let sid = session.sid;
    let (reply, trace) = server.with_dispatcher(session, move |d| {
        let t_in = Instant::now();
        let decoded: Result<Request, String> = gisui::decode(&wire);
        let t_dec = Instant::now();
        let req = match decoded {
            Ok(req) => req,
            Err(e) => return (Err(e), None),
        };
        if !traced {
            return (Ok(gisui::encode(&d.handle_request(sid, req))), None);
        }
        let ctx = d.session(sid).map(|s| s.context.clone());
        let replay_req = req.clone();
        let t_h = Instant::now();
        let resp = d.handle_request(sid, req);
        let t_enc = Instant::now();
        let reply = gisui::encode(&resp);
        let t_done = Instant::now();
        let replay = match ctx {
            Some(ctx) => with_replayer(d, |r| r.request(&ctx, &replay_req)),
            None => Replayed::default(),
        };
        let t_end = Instant::now();
        let trace = ShardTrace {
            decode_us: micros(t_dec - t_in),
            handle_us: micros(t_enc - t_h),
            encode_us: micros(t_done - t_enc),
            inside_us: micros(t_end - t_in),
            replay_total_us: micros(t_end - t_done),
            replay,
        };
        (Ok(reply), Some(trace))
    });
    let returned = Instant::now();
    let response = reply.and_then(|w| {
        let len = w.len();
        gisui::decode::<Response>(&w).map(|r| (r, len))
    });
    let done = Instant::now();
    let rt = micros(done - t0);
    let Some(trace) = trace else {
        return (response.map(|(r, _)| r), rt);
    };
    // Ledger of one traced request. The replay is not part of the op.
    let call_us = micros(returned - encoded);
    let hop = call_us - trace.inside_us;
    let protocol =
        micros(encoded - t0) + trace.decode_us + trace.encode_us + micros(done - returned);
    let self_us = trace.handle_us - trace.replay.layers_us;
    let l = &mut tally.ledger;
    l.add("activegis.hop_us", hop);
    l.add("gisui.protocol_us", protocol);
    l.add("gisui.dispatcher_self_us", self_us);
    if let Ok((_, len)) = &response {
        l.add("gisui.response_bytes", *len as f64);
    }
    l.merge(&trace.replay.ledger);
    l.add(
        "ledger.layers_us",
        hop + protocol + self_us + trace.replay.layers_us,
    );
    (response.map(|(r, _)| r), rt - trace.replay_total_us)
}
