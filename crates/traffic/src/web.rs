//! Web-browsing workload: a request/response byte server and a scripted
//! multi-connection browser.
//!
//! The paper's TCP experiments have clients "browsing the web, which
//! generates multiple concurrent TCP streams per client", driven by a
//! script "generated prior to the experiments to ensure that the traffic
//! pattern remained identical across different experiments" (§4.2). Our
//! browser pre-generates its page script from a seed, so two runs with the
//! same seed replay byte-identical workloads.
//!
//! The application protocol is deliberately minimal (an 8-byte big-endian
//! length request, answered by that many bytes): the proxy is transparent
//! and "should ... avoid parsing packet data, so that it can support any
//! protocol" (§1) — nothing in the system ever inspects these payloads.
//! The same server doubles as the FTP server (one connection, one huge
//! object).

use std::any::Any;

use bytes::{BufMut, Bytes, BytesMut};
use powerburst_sim::{FastHashMap, SimDuration, SimTime};
use rand::Rng;

use powerburst_net::{
    Ctx, IfaceId, Node, Packet, PatternCache, Proto, SockAddr, TcpFlags, TimerId, TimerToken,
};
use powerburst_transport::{TcpConfig, TcpEndpoint, TcpEvent};

use crate::app::{drive_endpoint, App, APP_TOKEN, CLIENT_RADIO};

/// Encode a request for `size` response bytes.
pub fn encode_request(size: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(8);
    b.put_u64(size);
    b.freeze()
}

/// The server's wired interface.
const SERVER_IFACE: IfaceId = IfaceId(0);

struct ServerConn {
    ep: TcpEndpoint,
    timer: Option<TimerId>,
    reqbuf: Vec<u8>,
    closing: bool,
}

/// Request/response byte server (HTTP and FTP stand-in).
pub struct ByteServer {
    addr: SockAddr,
    tcp: TcpConfig,
    conns: Vec<ServerConn>,
    by_remote: FastHashMap<SockAddr, usize>,
    /// Response-body filler templates, owned by this server so payload
    /// construction stays refcount-only without shared thread state.
    patterns: PatternCache,
    /// Total payload bytes served.
    pub bytes_served: u64,
    /// Connections accepted.
    pub accepted: u64,
}

impl ByteServer {
    /// New server listening at `addr`.
    pub fn new(addr: SockAddr, tcp: TcpConfig) -> ByteServer {
        ByteServer {
            addr,
            tcp,
            conns: Vec::new(),
            by_remote: FastHashMap::default(),
            patterns: PatternCache::new(),
            bytes_served: 0,
            accepted: 0,
        }
    }

    fn conn_for(&mut self, remote: SockAddr, syn: bool) -> Option<usize> {
        if let Some(&i) = self.by_remote.get(&remote) {
            return Some(i);
        }
        if !syn {
            return None;
        }
        let idx = self.conns.len();
        self.conns.push(ServerConn {
            ep: TcpEndpoint::passive(self.addr, remote, self.tcp),
            timer: None,
            reqbuf: Vec::new(),
            closing: false,
        });
        self.by_remote.insert(remote, idx);
        self.accepted += 1;
        Some(idx)
    }

    fn service(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        let conn = &mut self.conns[idx];
        for chunk in conn.ep.delivered_mut().drain(..) {
            conn.reqbuf.extend_from_slice(&chunk);
        }
        // Serve every complete 8-byte request. Response bodies are
        // refcount-only views into this server's 0x42 pattern template.
        while conn.reqbuf.len() >= 8 {
            let size = u64::from_be_bytes(conn.reqbuf[..8].try_into().expect("8"));
            conn.reqbuf.drain(..8);
            self.bytes_served += size;
            let body = self.patterns.bytes(0x42, size as usize);
            conn.ep.send(now, body);
        }
        let mut remote_fin = false;
        for ev in conn.ep.events_mut().drain(..) {
            remote_fin |= ev == TcpEvent::RemoteFin;
        }
        if remote_fin && !conn.closing {
            conn.closing = true;
            conn.ep.close(now);
        }
        drive_endpoint(ctx, SERVER_IFACE, &mut conn.ep, &mut conn.timer, idx as TimerToken);
    }
}

impl Node for ByteServer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        if pkt.proto != Proto::Tcp || pkt.dst != self.addr {
            return;
        }
        let syn = pkt.tcp_header().flags.contains(TcpFlags::SYN);
        let Some(idx) = self.conn_for(pkt.src, syn) else { return };
        let now = ctx.now();
        self.conns[idx].ep.on_packet(now, &pkt);
        self.service(ctx, idx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let idx = token as usize;
        if idx < self.conns.len() {
            let now = ctx.now();
            self.conns[idx].ep.on_tick(now);
            self.service(ctx, idx);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One page visit in a browsing script.
#[derive(Debug, Clone)]
pub struct Page {
    /// Think time before this page is requested.
    pub think: SimDuration,
    /// Object sizes fetched for this page (first is the document).
    pub objects: Vec<u64>,
    /// Concurrent connections used to fetch them.
    pub parallelism: usize,
}

/// Parameters for script generation.
#[derive(Debug, Clone, Copy)]
pub struct WebScriptConfig {
    /// Number of pages to visit.
    pub pages: usize,
    /// Think-time range, seconds.
    pub think_s: (f64, f64),
    /// Objects per page range.
    pub objects_per_page: (usize, usize),
    /// Object size range, bytes (log-uniform; heavy-ish tail).
    pub object_bytes: (u64, u64),
    /// Max concurrent connections per page.
    pub max_parallel: usize,
}

impl Default for WebScriptConfig {
    fn default() -> Self {
        WebScriptConfig {
            pages: 30,
            think_s: (4.0, 12.0),
            objects_per_page: (2, 5),
            object_bytes: (2_000, 30_000),
            max_parallel: 2,
        }
    }
}

/// Generate a deterministic browsing script.
pub fn generate_script<R: Rng + ?Sized>(cfg: &WebScriptConfig, rng: &mut R) -> Vec<Page> {
    let mut pages = Vec::with_capacity(cfg.pages);
    for _ in 0..cfg.pages {
        let think = SimDuration::from_secs_f64(rng.random_range(cfg.think_s.0..=cfg.think_s.1));
        let n = rng.random_range(cfg.objects_per_page.0..=cfg.objects_per_page.1);
        let (lo, hi) = (cfg.object_bytes.0 as f64, cfg.object_bytes.1 as f64);
        let objects = (0..n)
            .map(|_| {
                // Log-uniform sizes: many small objects, a few big ones.
                let u: f64 = rng.random();
                (lo * (hi / lo).powf(u)).round() as u64
            })
            .collect();
        let parallelism = rng.random_range(1..=cfg.max_parallel);
        pages.push(Page { think, objects, parallelism });
    }
    pages
}

/// Browser statistics.
#[derive(Debug, Clone, Default)]
pub struct BrowserStats {
    /// Completed object fetch latencies, seconds.
    pub object_latencies_s: Vec<f64>,
    /// Total payload bytes received.
    pub bytes_received: u64,
    /// Pages fully fetched.
    pub pages_done: usize,
    /// Objects fully fetched.
    pub objects_done: usize,
}

impl BrowserStats {
    /// Mean object latency, seconds (0 when none completed).
    pub fn mean_latency_s(&self) -> f64 {
        if self.object_latencies_s.is_empty() {
            return 0.0;
        }
        self.object_latencies_s.iter().sum::<f64>() / self.object_latencies_s.len() as f64
    }
}

struct BrowserConn {
    ep: TcpEndpoint,
    /// Objects (sizes) this connection still has to fetch, in order.
    queue: Vec<u64>,
    /// Outstanding object: (size, bytes received so far, request time).
    current: Option<(u64, u64, SimTime)>,
    connected: bool,
    done: bool,
}

const THINK_TIMER: TimerToken = APP_TOKEN | 0x01;
const CONN_TOKEN_BASE: TimerToken = APP_TOKEN | 0x100;

/// The scripted browser app (runs on a client node).
pub struct WebClientApp {
    me_host: powerburst_net::HostAddr,
    server: SockAddr,
    tcp: TcpConfig,
    script: Vec<Page>,
    page_idx: usize,
    /// A page is being fetched (guards against double completion from
    /// stray late segments).
    page_open: bool,
    next_port: u16,
    conns: Vec<BrowserConn>,
    /// Retransmission timer per connection slot. Not cleared with `conns`:
    /// a new page's connection `i` cancels whatever timer the previous
    /// page's connection `i` left pending.
    conn_timers: Vec<Option<TimerId>>,
    /// Statistics.
    pub stats: BrowserStats,
}

impl WebClientApp {
    /// New browser for the given pre-generated script.
    pub fn new(
        me_host: powerburst_net::HostAddr,
        server: SockAddr,
        tcp: TcpConfig,
        script: Vec<Page>,
    ) -> WebClientApp {
        WebClientApp {
            me_host,
            server,
            tcp,
            script,
            page_idx: 0,
            page_open: false,
            next_port: 10_000,
            conns: Vec::new(),
            conn_timers: Vec::new(),
            stats: BrowserStats::default(),
        }
    }

    /// Browser statistics so far.
    pub fn stats(&self) -> &BrowserStats {
        &self.stats
    }

    /// True when the whole script has been fetched.
    pub fn finished(&self) -> bool {
        self.page_idx >= self.script.len() && self.conns.iter().all(|c| c.done)
    }

    fn start_page(&mut self, ctx: &mut Ctx<'_>) {
        let Some(page) = self.script.get(self.page_idx) else { return };
        self.page_open = true;
        let par = page.parallelism.max(1).min(page.objects.len().max(1));
        // Round-robin the objects over `par` fresh connections.
        let mut queues: Vec<Vec<u64>> = vec![Vec::new(); par];
        for (i, &obj) in page.objects.iter().enumerate() {
            queues[i % par].push(obj);
        }
        self.conns.clear();
        let now = ctx.now();
        for queue in queues {
            let port = self.next_port;
            self.next_port += 1;
            let local = SockAddr::new(self.me_host, port);
            let mut ep = TcpEndpoint::active(local, self.server, self.tcp);
            ep.connect(now);
            self.conns.push(BrowserConn {
                ep,
                queue,
                current: None,
                connected: false,
                done: false,
            });
        }
        for i in 0..self.conns.len() {
            self.drive_conn(ctx, i);
        }
    }

    fn request_next(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let now = ctx.now();
        let conn = &mut self.conns[i];
        if conn.current.is_some() || conn.done {
            return;
        }
        if conn.queue.is_empty() {
            conn.done = true;
            conn.ep.close(now);
            return;
        }
        let size = conn.queue.remove(0);
        conn.current = Some((size, 0, now));
        conn.ep.send(now, encode_request(size));
    }

    fn service_conn(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let now = ctx.now();
        let mut finished_obj = false;
        {
            let conn = &mut self.conns[i];
            for ev in conn.ep.events_mut().drain(..) {
                if ev == TcpEvent::Connected {
                    conn.connected = true;
                }
            }
            for chunk in conn.ep.delivered_mut().drain(..) {
                self.stats.bytes_received += chunk.len() as u64;
                if let Some((size, got, t0)) = conn.current.as_mut() {
                    *got += chunk.len() as u64;
                    if *got >= *size {
                        self.stats.object_latencies_s.push(now.since(*t0).as_secs_f64());
                        self.stats.objects_done += 1;
                        conn.current = None;
                        finished_obj = true;
                    }
                }
            }
        }
        if self.conns[i].connected {
            self.request_next(ctx, i);
        }
        let _ = finished_obj;
        self.drive_conn(ctx, i);
        // Page complete?
        if self.page_open && self.conns.iter().all(|c| c.done) {
            self.page_open = false;
            self.stats.pages_done += 1;
            self.page_idx += 1;
            if let Some(next) = self.script.get(self.page_idx) {
                ctx.set_timer(next.think, THINK_TIMER);
            }
        }
    }

    fn drive_conn(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        if self.conn_timers.len() <= i {
            self.conn_timers.resize(i + 1, None);
        }
        let token = CONN_TOKEN_BASE + i as TimerToken;
        drive_endpoint(ctx, CLIENT_RADIO, &mut self.conns[i].ep, &mut self.conn_timers[i], token);
    }
}

impl App for WebClientApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(first) = self.script.first() {
            ctx.set_timer(first.think, THINK_TIMER);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.proto != Proto::Tcp {
            return;
        }
        let Some(i) =
            self.conns.iter().position(|c| c.ep.local() == pkt.dst && c.ep.remote() == pkt.src)
        else {
            return;
        };
        let now = ctx.now();
        self.conns[i].ep.on_packet(now, &pkt);
        self.service_conn(ctx, i);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token == THINK_TIMER {
            self.start_page(ctx);
        } else if token >= CONN_TOKEN_BASE {
            let i = (token - CONN_TOKEN_BASE) as usize;
            if i < self.conns.len() {
                let now = ctx.now();
                self.conns[i].ep.on_tick(now);
                self.service_conn(ctx, i);
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_sim::derive_rng;

    #[test]
    fn script_is_deterministic_per_seed() {
        let cfg = WebScriptConfig::default();
        let a = generate_script(&cfg, &mut derive_rng(1, 2));
        let b = generate_script(&cfg, &mut derive_rng(1, 2));
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.objects, pb.objects);
            assert_eq!(pa.think, pb.think);
            assert_eq!(pa.parallelism, pb.parallelism);
        }
    }

    #[test]
    fn script_respects_bounds() {
        let cfg = WebScriptConfig::default();
        let s = generate_script(&cfg, &mut derive_rng(3, 4));
        assert_eq!(s.len(), cfg.pages);
        for p in &s {
            assert!(p.objects.len() >= cfg.objects_per_page.0);
            assert!(p.objects.len() <= cfg.objects_per_page.1);
            for &o in &p.objects {
                assert!(o >= cfg.object_bytes.0 && o <= cfg.object_bytes.1);
            }
            assert!(p.parallelism >= 1 && p.parallelism <= cfg.max_parallel);
            let t = p.think.as_secs_f64();
            assert!(t >= cfg.think_s.0 && t <= cfg.think_s.1);
        }
    }

    #[test]
    fn request_encoding() {
        let b = encode_request(123_456);
        assert_eq!(u64::from_be_bytes(b[..].try_into().unwrap()), 123_456);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WebScriptConfig::default();
        let a = generate_script(&cfg, &mut derive_rng(1, 2));
        let b = generate_script(&cfg, &mut derive_rng(9, 2));
        let same = a.iter().zip(&b).all(|(x, y)| x.objects == y.objects && x.think == y.think);
        assert!(!same);
    }
}
