//! The `avad` daemon: the full [`ApiStack`] behind an HTTP/JSON control
//! plane.
//!
//! The daemon layer is deliberately thin — every endpoint is a direct
//! projection of an existing engine primitive:
//!
//! | endpoint                     | engine primitive                      |
//! |------------------------------|---------------------------------------|
//! | `POST /vms`                  | `attach_vm_with_faults` + [`PolicyDefaults`] layering |
//! | `DELETE /vms/{id}`           | `detach_vm` (drains the lane)         |
//! | `POST /vms/{id}/run`         | `ClWorkload::run` over the VM's guest library |
//! | `POST /vms/{id}/migrate`     | `migrate_vm_fresh` (snapshot restore) |
//! | `POST /vms/{id}/rebalance`   | `rebalance_vm`                        |
//! | `POST /vms/{id}/crash`       | `crash_vm_server` (test hook)         |
//! | `GET /vms`, `/vms/{id}/stats`| router/server/memory stats snapshots  |
//! | `GET /metrics`               | `export_prometheus`                   |
//! | `GET /health`                | `probe_liveness` on a canary VM       |
//! | `POST /shutdown`             | drain + detach-all + trace flush      |
//!
//! **Auth.** Tenants are declared in the config with bearer tokens; every
//! endpoint except `/health` and `/metrics` requires one. Non-admin
//! tenants only see and manage their own VMs, and the `policy` object on
//! `POST /vms` may only *tighten* their operator-configured limits —
//! loosening (higher rate/weight/priority/quota/concurrency) is a 403,
//! so the config file stays the isolation boundary. A config with no
//! tenants runs *open*: every request acts as an implicit admin
//! (examples, local experiments).
//!
//! **Health.** `/health` probes a *canary* VM the daemon attaches at
//! boot and never exposes to tenants, so liveness is judged on a lane
//! with known policy regardless of tenant churn, migration, or faults
//! injected into tenant VMs.
//!
//! **Shutdown.** `POST /shutdown` (admin) stops the accept loop, waits
//! for in-flight HTTP requests to drain (bounded by
//! `daemon.drain_timeout_ms`), detaches every VM — which drains each
//! router lane — and flushes the flight recorder to
//! `daemon.flight_record` as Chrome-trace JSON.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ava_core::{
    opencl_pool_stack, opencl_stack, ApiStack, OpenClClient, PolicyDefaults, StackError,
};
use ava_guest::GuestLibrary;
use ava_telemetry::{metric_set, MetricSet, Registry};
use ava_transport::{FaultAction, FaultPlan};
use ava_wire::{Message, VmId};
use ava_workloads::{opencl_workloads, silo_with_all_kernels, Scale};
use parking_lot::Mutex;

use crate::config::{AvadConfig, PolicySection};
use crate::http::{Request, Response, Server, Stopper};
use crate::json::{self, Json};

/// How long a `/health` probe waits for the canary's ping reply.
const HEALTH_PROBE_TIMEOUT: Duration = Duration::from_millis(750);

/// One tenant-owned VM.
struct VmEntry {
    name: String,
    tenant: String,
    lib: Arc<GuestLibrary>,
    runs: AtomicU64,
}

metric_set! {
    /// Front-door request counters, registered into the stack's telemetry
    /// registry as `frontdoor.*` so they ride the existing `/metrics`
    /// exporter (`ava_frontdoor_*_total` families).
    struct FrontdoorCounters {
        requests: Counter,
        unauthorized: Counter,
        scrapes: Counter,
        vms_created: Counter,
        vms_deleted: Counter,
        workload_runs: Counter,
    }
}

/// The identity a request runs as after auth.
struct Identity {
    tenant: String,
    admin: bool,
}

/// The daemon state: config, stack, canary, and the tenant VM table.
pub struct Daemon {
    config: AvadConfig,
    stack: ApiStack,
    canary: VmId,
    canary_lib: Arc<GuestLibrary>,
    vms: Mutex<BTreeMap<VmId, VmEntry>>,
    counters: FrontdoorCounters,
    shutdown_requested: AtomicBool,
}

/// A running daemon: bound address plus shutdown control. Dropping the
/// handle without [`DaemonHandle::stop`] leaves the daemon running until
/// the process exits.
pub struct DaemonHandle {
    addr: SocketAddr,
    daemon: Arc<Daemon>,
    stopper: Stopper,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound listen address (useful with `listen = "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown (as `POST /shutdown` would) and waits for the
    /// daemon to drain, detach every VM, and flush the flight recorder.
    pub fn stop(mut self) {
        self.daemon
            .shutdown_requested
            .store(true, Ordering::Release);
        let drain = Duration::from_millis(self.daemon.config.daemon.drain_timeout_ms);
        self.stopper.stop(drain);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Waits for the daemon to exit on its own (e.g. via `POST
    /// /shutdown`). Used by `avad serve`.
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Daemon {
    /// Builds the stack described by `config`, which must pass
    /// [`AvadConfig::validate`], and attaches the canary VM.
    fn new(config: AvadConfig) -> Result<Daemon, String> {
        let violations = config.validate();
        if !violations.is_empty() {
            let listed: Vec<String> = violations.iter().map(ToString::to_string).collect();
            return Err(format!("invalid config: {}", listed.join("; ")));
        }
        let stack_config = config.stack_config();
        let stack = if stack_config.pool_size > 0 {
            let silos = (0..stack_config.pool_size)
                .map(|_| silo_with_all_kernels(Scale::Test))
                .collect();
            opencl_pool_stack(silos, stack_config)
        } else {
            opencl_stack(silo_with_all_kernels(Scale::Test), stack_config)
        }
        .map_err(|e| format!("cannot build stack: {e}"))?;

        let registry = Registry::new();
        let counters = FrontdoorCounters::default();
        counters.register(&registry, "frontdoor");
        stack
            .set_telemetry(registry)
            .map_err(|e| format!("cannot attach telemetry: {e}"))?;

        // The canary gets plain defaults — no tenant policy, no faults —
        // so /health judges the data path, not a tenant's quota.
        let (canary, canary_lib) = stack
            .attach_vm(PolicyDefaults::default().build())
            .map_err(|e| format!("cannot attach canary VM: {e}"))?;

        Ok(Daemon {
            config,
            stack,
            canary,
            canary_lib,
            vms: Mutex::new(BTreeMap::new()),
            counters,
            shutdown_requested: AtomicBool::new(false),
        })
    }

    /// Boots a daemon for `config`: binds the listener, attaches the
    /// canary, and starts serving on a background thread.
    pub fn start(config: AvadConfig) -> Result<DaemonHandle, String> {
        let listen = config.daemon.listen.clone();
        let server = Server::bind(&listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
        let addr = server.addr();
        let stopper = server.stopper();
        let daemon = Arc::new(Daemon::new(config)?);
        let runner = Arc::clone(&daemon);
        let loop_stopper = stopper.clone();
        let thread = std::thread::spawn(move || {
            let handler_daemon = Arc::clone(&runner);
            let handler_stopper = loop_stopper;
            server.run(move |req| {
                let resp = handler_daemon.handle(req);
                if handler_daemon.shutdown_requested.load(Ordering::Acquire) {
                    // Stop from a detached thread: the stopper waits for
                    // in-flight requests (including this one) to drain.
                    let s = handler_stopper.clone();
                    let drain =
                        Duration::from_millis(handler_daemon.config.daemon.drain_timeout_ms);
                    std::thread::spawn(move || {
                        s.stop(drain);
                    });
                }
                resp
            });
            runner.finalize();
        });
        Ok(DaemonHandle {
            addr,
            daemon,
            stopper,
            thread: Some(thread),
        })
    }

    /// Post-drain teardown: detach every VM (draining each router lane),
    /// then flush the flight recorder.
    fn finalize(&self) {
        let ids: Vec<VmId> = self.vms.lock().keys().copied().collect();
        for vm in ids {
            let _ = self.stack.detach_vm(vm);
            self.vms.lock().remove(&vm);
        }
        let _ = self.stack.detach_vm(self.canary);
        if let Some(path) = &self.config.daemon.flight_record {
            if let Some(trace) = self.stack.export_trace() {
                let _ = std::fs::write(path, trace);
            }
        }
    }

    /// Resolves the request's identity. `None` → the caller gets 401.
    fn authenticate(&self, req: &Request) -> Option<Identity> {
        if self.config.tenants.is_empty() {
            return Some(Identity {
                tenant: "default".to_string(),
                admin: true,
            });
        }
        let token = req.bearer.as_deref()?;
        let (name, tenant) = self.config.tenant_by_token(token)?;
        Some(Identity {
            tenant: name.to_string(),
            admin: tenant.admin,
        })
    }

    /// True when `id` may manage `vm`.
    fn owns(&self, id: &Identity, vm: VmId) -> bool {
        id.admin
            || self
                .vms
                .lock()
                .get(&vm)
                .is_some_and(|entry| entry.tenant == id.tenant)
    }

    /// The HTTP dispatch table.
    fn handle(&self, req: Request) -> Response {
        self.counters.requests.inc();
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["health"]) => self.health(),
            ("GET", ["metrics"]) => self.metrics(),
            _ => self.handle_authed(req),
        }
    }

    fn handle_authed(&self, req: Request) -> Response {
        let Some(id) = self.authenticate(&req) else {
            self.counters.unauthorized.inc();
            return error_response(401, "missing or unknown bearer token");
        };
        let segments: Vec<String> = req
            .path
            .split('/')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        let segments: Vec<&str> = segments.iter().map(String::as_str).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["vms"]) => self.list_vms(&id),
            ("POST", ["vms"]) => self.create_vm(&id, &req.body),
            (method, ["vms", vm]) => {
                let Some(vm) = parse_vm(vm) else {
                    return error_response(400, "VM id must be an integer");
                };
                match method {
                    "DELETE" => self.guarded(&id, vm, |d| d.delete_vm(vm)),
                    "GET" => self.guarded(&id, vm, |d| d.vm_stats(vm)),
                    _ => error_response(405, "expected GET or DELETE"),
                }
            }
            (method, ["vms", vm, action]) => {
                let Some(vm) = parse_vm(vm) else {
                    return error_response(400, "VM id must be an integer");
                };
                match (method, *action) {
                    ("GET", "stats") => self.guarded(&id, vm, |d| d.vm_stats(vm)),
                    ("POST", "run") => self.guarded(&id, vm, |d| d.run_workload(vm, &req.body)),
                    ("POST", "migrate") => self.guarded(&id, vm, |d| d.migrate(vm)),
                    ("POST", "rebalance") => self.guarded(&id, vm, |d| d.rebalance(vm, &req.body)),
                    ("POST", "crash") => {
                        if !self.config.daemon.enable_test_hooks {
                            return error_response(
                                403,
                                "crash hook disabled (daemon.enable_test_hooks = false)",
                            );
                        }
                        self.guarded(&id, vm, |d| d.crash(vm))
                    }
                    _ => error_response(404, "unknown VM action"),
                }
            }
            ("POST", ["shutdown"]) => {
                if !id.admin {
                    return error_response(403, "shutdown requires an admin tenant");
                }
                self.shutdown_requested.store(true, Ordering::Release);
                Response::json(202, "{\"status\":\"draining\"}")
            }
            _ => error_response(404, "no such endpoint"),
        }
    }

    /// Ownership guard shared by every per-VM endpoint.
    fn guarded(
        &self,
        id: &Identity,
        vm: VmId,
        action: impl FnOnce(&Daemon) -> Response,
    ) -> Response {
        if !self.vms.lock().contains_key(&vm) {
            return error_response(404, &format!("no VM {vm}"));
        }
        if !self.owns(id, vm) {
            return error_response(403, &format!("VM {vm} belongs to another tenant"));
        }
        action(self)
    }

    fn health(&self) -> Response {
        match self.canary_lib.probe_liveness(HEALTH_PROBE_TIMEOUT) {
            Ok(true) => Response::json(200, "{\"status\":\"ok\"}"),
            Ok(false) => error_response(503, "canary probe timed out"),
            Err(e) => error_response(503, &format!("canary probe failed: {e}")),
        }
    }

    fn metrics(&self) -> Response {
        self.counters.scrapes.inc();
        match self.stack.export_prometheus() {
            Some(text) => Response::text(200, text),
            None => error_response(500, "telemetry not attached"),
        }
    }

    fn list_vms(&self, id: &Identity) -> Response {
        let vms = self.vms.lock();
        let items: Vec<Json> = vms
            .iter()
            .filter(|(_, entry)| id.admin || entry.tenant == id.tenant)
            .map(|(vm, entry)| {
                Json::obj([
                    ("id", Json::u64(u64::from(*vm))),
                    ("name", Json::str(&entry.name)),
                    ("tenant", Json::str(&entry.tenant)),
                    (
                        "slot",
                        match self.stack.vm_slot(*vm) {
                            Some(slot) => Json::u64(slot as u64),
                            None => Json::Null,
                        },
                    ),
                    ("runs", Json::u64(entry.runs.load(Ordering::Relaxed))),
                ])
            })
            .collect();
        Response::json(200, Json::obj([("vms", Json::Arr(items))]).to_string())
    }

    fn create_vm(&self, id: &Identity, body: &[u8]) -> Response {
        let body = match parse_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let name = body
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("vm")
            .to_string();

        // Policy layering: tenant config ⊕ stack-wide defaults form the
        // operator-set envelope; the request body is the least-trusted
        // layer and may only *tighten* it (admins excepted — they are
        // the operator speaking over HTTP).
        let request_overrides = match body.get("policy") {
            Some(p) => match policy_from_json(p) {
                Ok(d) => d,
                Err(msg) => return error_response(400, &msg),
            },
            None => PolicyDefaults::default(),
        };
        // Request-supplied quotas obey the same overcommit envelope that
        // `--check-config` enforces on config-file quotas.
        let quota = request_overrides.device_mem_quota;
        if let Some(message) = quota.and_then(|q| self.config.quota_error(q)) {
            return error_response(400, &format!("policy.device_mem_quota: {message}"));
        }
        let tenant_config = self.config.tenant_defaults(&id.tenant);
        let merged = if id.admin {
            request_overrides.overlay(&tenant_config)
        } else {
            match tighten_policy(&request_overrides, &tenant_config) {
                Ok(d) => d,
                Err(msg) => return error_response(403, &msg),
            }
        };
        let policy = merged.build();

        let (tx_plan, rx_plan) = match body.get("faults") {
            None => (None, None),
            Some(_) if !self.config.daemon.enable_test_hooks => {
                return error_response(
                    403,
                    "fault injection disabled (daemon.enable_test_hooks = false)",
                );
            }
            Some(f) => match fault_plans_from_json(f) {
                Ok(plans) => plans,
                Err(msg) => return error_response(400, &msg),
            },
        };

        match self.stack.attach_vm_with_faults(policy, tx_plan, rx_plan) {
            Ok((vm, lib)) => {
                self.vms.lock().insert(
                    vm,
                    VmEntry {
                        name: name.clone(),
                        tenant: id.tenant.clone(),
                        lib,
                        runs: AtomicU64::new(0),
                    },
                );
                self.counters.vms_created.inc();
                let slot = self.stack.vm_slot(vm);
                Response::json(
                    201,
                    Json::obj([
                        ("id", Json::u64(u64::from(vm))),
                        ("name", Json::str(name)),
                        ("tenant", Json::str(&id.tenant)),
                        ("slot", slot.map_or(Json::Null, |s| Json::u64(s as u64))),
                    ])
                    .to_string(),
                )
            }
            Err(e) => stack_error_response(e),
        }
    }

    fn delete_vm(&self, vm: VmId) -> Response {
        match self.stack.detach_vm(vm) {
            Ok(()) => {
                self.vms.lock().remove(&vm);
                self.counters.vms_deleted.inc();
                Response::json(200, format!("{{\"deleted\":{vm}}}"))
            }
            Err(e) => stack_error_response(e),
        }
    }

    fn vm_stats(&self, vm: VmId) -> Response {
        let router = match self.stack.vm_router_stats(vm) {
            Ok(s) => s,
            Err(e) => return stack_error_response(e),
        };
        let server = match self.stack.vm_server_stats(vm) {
            Ok(s) => s,
            Err(e) => return stack_error_response(e),
        };
        let memory = self.stack.vm_memory_stats(vm).ok();
        let (name, tenant, runs) = {
            let vms = self.vms.lock();
            let entry = vms.get(&vm);
            (
                entry.map(|e| e.name.clone()).unwrap_or_default(),
                entry.map(|e| e.tenant.clone()).unwrap_or_default(),
                entry.map_or(0, |e| e.runs.load(Ordering::Relaxed)),
            )
        };
        let router_json = Json::obj([
            ("forwarded", Json::u64(router.forwarded)),
            ("rejected", Json::u64(router.rejected)),
            ("replies", Json::u64(router.replies)),
            ("bytes_in", Json::u64(router.bytes_in)),
            ("bytes_out", Json::u64(router.bytes_out)),
            ("bytes_elided", Json::u64(router.bytes_elided)),
            ("outstanding", Json::u64(router.outstanding)),
            ("shed", Json::u64(router.shed)),
            ("deadline_drops", Json::u64(router.deadline_drops)),
            ("age_drops", Json::u64(router.age_drops)),
            ("breaker_opens", Json::u64(router.breaker_opens)),
            ("est_device_time_us", Json::Num(router.est_device_time_us)),
        ]);
        let server_json = Json::obj([
            ("calls", Json::u64(server.calls)),
            ("transport_errors", Json::u64(server.transport_errors)),
            ("swap_outs", Json::u64(server.swap_outs)),
            ("swap_ins", Json::u64(server.swap_ins)),
            (
                "duplicates_suppressed",
                Json::u64(server.duplicates_suppressed),
            ),
            ("quota_rejects", Json::u64(server.quota_rejects)),
        ]);
        let memory_json = memory.map_or(Json::Null, |m| {
            Json::obj([
                ("resident_bytes", Json::u64(m.resident_bytes)),
                ("swapped_bytes", Json::u64(m.swapped_bytes)),
                ("live_bytes", Json::u64(m.live_bytes)),
                ("evictions", Json::u64(m.evictions)),
                ("faults", Json::u64(m.faults)),
            ])
        });
        Response::json(
            200,
            Json::obj([
                ("id", Json::u64(u64::from(vm))),
                ("name", Json::str(name)),
                ("tenant", Json::str(tenant)),
                ("runs", Json::u64(runs)),
                (
                    "slot",
                    self.stack
                        .vm_slot(vm)
                        .map_or(Json::Null, |s| Json::u64(s as u64)),
                ),
                ("router", router_json),
                ("server", server_json),
                ("memory", memory_json),
            ])
            .to_string(),
        )
    }

    fn run_workload(&self, vm: VmId, body: &[u8]) -> Response {
        let body = match parse_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let Some(name) = body.get("workload").and_then(Json::as_str) else {
            return error_response(
                400,
                "body must name a workload, e.g. {\"workload\":\"kmeans\"}",
            );
        };
        let repeat = body
            .get("repeat")
            .and_then(Json::as_u64)
            .unwrap_or(1)
            .clamp(1, 16);
        let Some(workload) = opencl_workloads(Scale::Test)
            .into_iter()
            .find(|w| w.name() == name)
        else {
            let known: Vec<String> = opencl_workloads(Scale::Test)
                .iter()
                .map(|w| w.name().to_string())
                .collect();
            return error_response(
                404,
                &format!("unknown workload `{name}` (known: {})", known.join(", ")),
            );
        };
        let lib = {
            let vms = self.vms.lock();
            match vms.get(&vm) {
                Some(entry) => Arc::clone(&entry.lib),
                None => return error_response(404, &format!("no VM {vm}")),
            }
        };
        let client = OpenClClient::new(lib);
        let mut checksums = Vec::new();
        for _ in 0..repeat {
            match workload.run(&client) {
                Ok(checksum) => checksums.push(Json::Num(checksum)),
                Err(e) => return error_response(500, &format!("workload {name} failed: {e}")),
            }
        }
        self.counters.workload_runs.add(repeat);
        if let Some(entry) = self.vms.lock().get(&vm) {
            entry.runs.fetch_add(repeat, Ordering::Relaxed);
        }
        Response::json(
            200,
            Json::obj([
                ("workload", Json::str(name)),
                ("checksums", Json::Arr(checksums)),
            ])
            .to_string(),
        )
    }

    fn migrate(&self, vm: VmId) -> Response {
        match self.stack.migrate_vm_fresh(vm) {
            Ok(()) => {
                let slot = self.stack.vm_slot(vm);
                Response::json(
                    200,
                    Json::obj([
                        ("migrated", Json::u64(u64::from(vm))),
                        ("slot", slot.map_or(Json::Null, |s| Json::u64(s as u64))),
                    ])
                    .to_string(),
                )
            }
            Err(e) => stack_error_response(e),
        }
    }

    fn rebalance(&self, vm: VmId, body: &[u8]) -> Response {
        let body = match parse_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let Some(slot) = body.get("slot").and_then(Json::as_u64) else {
            return error_response(400, "body must carry a target slot, e.g. {\"slot\":1}");
        };
        match self.stack.rebalance_vm(vm, slot as usize) {
            Ok(()) => Response::json(
                200,
                Json::obj([
                    ("rebalanced", Json::u64(u64::from(vm))),
                    ("slot", Json::u64(slot)),
                ])
                .to_string(),
            ),
            Err(e) => stack_error_response(e),
        }
    }

    fn crash(&self, vm: VmId) -> Response {
        match self.stack.crash_vm_server(vm) {
            Ok(()) => Response::json(200, format!("{{\"crashed\":{vm}}}")),
            Err(e) => stack_error_response(e),
        }
    }
}

fn parse_vm(s: &str) -> Option<VmId> {
    s.parse::<VmId>().ok()
}

fn parse_body(body: &[u8]) -> Result<Json, Response> {
    if body.is_empty() {
        return Ok(Json::Obj(BTreeMap::new()));
    }
    let text = std::str::from_utf8(body).map_err(|_| error_response(400, "body is not UTF-8"))?;
    json::parse(text).map_err(|e| error_response(400, &format!("invalid JSON body: {e}")))
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        Json::obj([("error", Json::str(message))]).to_string(),
    )
}

fn stack_error_response(e: StackError) -> Response {
    let status = match &e {
        StackError::UnknownVm(_) => 404,
        _ => 500,
    };
    error_response(status, &e.to_string())
}

/// Applies a non-admin tenant's requested overrides on top of its
/// operator-configured envelope. Config wins: each field may only move
/// in the *tightening* direction (lower rate/burst, lower concurrency,
/// smaller quota, lower weight/priority). Weight and priority bound
/// against their build-time defaults (1 and 0) when unconfigured, so an
/// absent config line is a ceiling, not a blank check. A loosening
/// request is refused outright so the tenant learns its envelope
/// instead of silently keeping the configured value.
fn tighten_policy(req: &PolicyDefaults, config: &PolicyDefaults) -> Result<PolicyDefaults, String> {
    if let (Some((rate, burst)), Some((max_rate, max_burst))) = (req.rate_limit, config.rate_limit)
    {
        if rate > max_rate || burst > max_burst {
            return Err(format!(
                "policy.rate_limit may not exceed the configured \
                 {max_rate} calls/s (burst {max_burst}) for this tenant"
            ));
        }
    }
    at_most("weight", req.weight, Some(config.weight.unwrap_or(1)), "")?;
    at_most(
        "priority",
        req.priority,
        Some(config.priority.unwrap_or(0)),
        "",
    )?;
    at_most(
        "device_mem_quota",
        req.device_mem_quota,
        config.device_mem_quota,
        " bytes",
    )?;
    at_most("max_inflight", req.max_inflight, config.max_inflight, "")?;
    Ok(req.overlay(config))
}

/// Refuses a requested `value` above the tenant's configured `max`.
fn at_most<T: PartialOrd + std::fmt::Display>(
    key: &str,
    value: Option<T>,
    max: Option<T>,
    unit: &str,
) -> Result<(), String> {
    match (value, max) {
        (Some(value), Some(max)) if value > max => Err(format!(
            "policy.{key} may not exceed the configured {max}{unit} for this tenant"
        )),
        _ => Ok(()),
    }
}

/// Reads the request's `policy` object into a [`PolicySection`], with
/// the same keys and ranges a config file's `[policy]` obeys, and lowers
/// it the same way.
fn policy_from_json(p: &Json) -> Result<PolicyDefaults, String> {
    if let Json::Obj(fields) = p {
        if let Some(key) = PolicySection::unknown_key(fields.keys().map(String::as_str)) {
            return Err(format!("unknown key `policy.{key}`"));
        }
    }
    let u64_field = |key: &str| -> Result<Option<u64>, String> {
        p.get(key)
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("policy.{key} must be a non-negative integer"))
            })
            .transpose()
    };
    let rate_limit = p
        .get("rate_limit")
        .map(|v| {
            v.as_f64()
                .filter(|r| *r > 0.0)
                .ok_or("policy.rate_limit must be a positive number")
        })
        .transpose()?;
    let section = PolicySection {
        rate_limit,
        rate_burst: u64_field("rate_burst")?,
        weight: u64_field("weight")?,
        priority: u64_field("priority")?,
        max_inflight: u64_field("max_inflight")?,
        device_mem_quota: u64_field("device_mem_quota")?,
    };
    match section.range_error() {
        Some(message) => Err(message),
        None => Ok(section.defaults()),
    }
}

/// Builds the deterministic chaos fault-plan pair from the request's
/// `faults` object (`{"seed": N, "delay_ms": M?}`).
///
/// The schedule mirrors the in-repo chaos suite exactly, so its
/// bit-identical guarantee carries over the HTTP surface: only
/// *recoverable* frames are faulted. On the guest→router direction every
/// 20th call frame is duplicated (dedup absorbs it) and a seeded 5% of
/// frames are delayed; on the router→guest direction every 20th reply is
/// dropped (the guest retries; the server re-answers from its reply
/// cache) and another 5% duplicated. Control frames (heartbeats, pings)
/// are never faulted — `/health` must stay honest under chaos.
fn fault_plans_from_json(f: &Json) -> Result<(Option<FaultPlan>, Option<FaultPlan>), String> {
    let seed = f
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("faults.seed must be a non-negative integer")?;
    let delay_ms = f.get("delay_ms").and_then(Json::as_u64).unwrap_or(1);
    let tx = FaultPlan {
        seed,
        delay_rate: 0.05,
        delay: Duration::from_millis(delay_ms),
        ..FaultPlan::default()
    }
    .eligible(|msg| !matches!(msg, Message::Control(_)))
    .rule(
        |seq, msg| matches!(msg, Message::Call(_)) && seq % 20 == 13,
        FaultAction::Duplicate,
    );
    let rx = FaultPlan::quiet(seed ^ 0x5EED_CAFE)
        .eligible(|msg| !matches!(msg, Message::Control(_)))
        .rule(
            |seq, msg| matches!(msg, Message::Reply(_)) && seq % 20 == 7,
            FaultAction::Drop,
        )
        .rule(
            |seq, msg| matches!(msg, Message::Reply(_)) && seq % 20 == 17,
            FaultAction::Duplicate,
        );
    Ok((Some(tx), Some(rx)))
}
