//! `ava-core` — AvA assembled: automatic virtualization of accelerator
//! APIs (HotOS '19).
//!
//! This crate wires every piece of the reproduction together:
//!
//! * the bundled **API specifications** ([`specs`]) — unmodified C headers
//!   plus CAvA annotation files, compiled to runtime descriptors;
//! * the **generated API servers** ([`bindings`]) — handlers executing
//!   forwarded calls against the native silos (`simcl`, `simnc`);
//! * the **generated guest libraries** ([`clients`]) — typed clients
//!   implementing the same API traits as the silos, but remoting through
//!   the AvA transport/router/server stack;
//! * the **stack facade** ([`stack`]) — hypervisor + router + per-VM
//!   servers, with pause/resume, migration and statistics.
//!
//! # Examples
//!
//! Virtualize OpenCL and run an application against the virtual device:
//!
//! ```
//! use ava_core::{opencl_stack, OpenClClient, StackConfig};
//! use ava_hypervisor::VmPolicy;
//! use simcl::{ClApi, SimCl};
//! use simcl::types::{DeviceType, QueueProps};
//!
//! let cl = SimCl::new();
//! let stack = opencl_stack(cl, StackConfig::default()).unwrap();
//! let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
//! let api = OpenClClient::new(lib);
//!
//! // The guest application is oblivious: same calls, virtual device.
//! let platform = api.get_platform_ids().unwrap()[0];
//! let device = api.get_device_ids(platform, DeviceType::Gpu).unwrap()[0];
//! let ctx = api.create_context(device).unwrap();
//! let queue = api.create_command_queue(ctx, device, QueueProps::default()).unwrap();
//! api.finish(queue).unwrap();
//! ```

#![warn(clippy::too_many_lines)]

pub mod bindings;
pub mod clients;
pub mod specs;
pub mod stack;

use std::sync::Arc;

pub use ava_guest::{GuestConfig, GuestLibrary, GuestStats};
pub use ava_hypervisor::{BreakerConfig, PlacementPolicy, PolicyDefaults, SchedulerKind, VmPolicy};
pub use ava_spec::LowerOptions;
pub use ava_transport::{CostModel, TransportKind};
pub use bindings::{MvncHandler, OpenClHandler};
pub use clients::{MvncClient, OpenClClient};
pub use stack::{
    ApiStack, BrownoutConfig, PoolSlotStats, RecoveryStats, Result, StackConfig, StackError,
};

/// Builds a complete AvA stack virtualizing OpenCL over the silo `cl`,
/// using the default (async-optimized) specification.
pub fn opencl_stack(cl: simcl::SimCl, config: StackConfig) -> Result<ApiStack> {
    opencl_stack_with(cl, config, LowerOptions::default())
}

/// Builds an OpenCL stack with explicit lowering options (the
/// `enable_async: false` variant is the §5 "unoptimized specification"
/// baseline).
pub fn opencl_stack_with(
    cl: simcl::SimCl,
    config: StackConfig,
    opts: LowerOptions,
) -> Result<ApiStack> {
    let descriptor = specs::opencl_descriptor(opts)
        .map_err(|e| StackError::Server(ava_server::ServerError::Handler(e.to_string())))?;
    Ok(ApiStack::new(
        descriptor,
        move || Box::new(OpenClHandler::new(cl.clone())) as Box<dyn ava_server::ApiHandler>,
        config,
    ))
}

/// Builds an OpenCL stack over a *pool* of silos: one shared device per
/// silo, `config.pool_size` forced to `silos.len()`. VMs attached to the
/// stack are bound to slots by `config.placement` and contend for their
/// slot's device; see `StackConfig::pool_size`.
pub fn opencl_pool_stack(silos: Vec<simcl::SimCl>, config: StackConfig) -> Result<ApiStack> {
    opencl_pool_stack_with(silos, config, LowerOptions::default())
}

/// Builds an OpenCL pool stack with explicit lowering options.
pub fn opencl_pool_stack_with(
    silos: Vec<simcl::SimCl>,
    mut config: StackConfig,
    opts: LowerOptions,
) -> Result<ApiStack> {
    assert!(!silos.is_empty(), "a device pool needs at least one silo");
    let descriptor = specs::opencl_descriptor(opts)
        .map_err(|e| StackError::Server(ava_server::ServerError::Handler(e.to_string())))?;
    config.pool_size = silos.len();
    Ok(ApiStack::new_indexed(
        descriptor,
        move |i| Box::new(OpenClHandler::new(silos[i].clone())) as Box<dyn ava_server::ApiHandler>,
        config,
    ))
}

/// Builds a complete AvA stack virtualizing the NCSDK over the silo `nc`.
pub fn mvnc_stack(nc: simnc::SimNc, config: StackConfig) -> Result<ApiStack> {
    mvnc_stack_with(nc, config, LowerOptions::default())
}

/// Builds an NCSDK stack with explicit lowering options.
pub fn mvnc_stack_with(
    nc: simnc::SimNc,
    config: StackConfig,
    opts: LowerOptions,
) -> Result<ApiStack> {
    let descriptor = specs::mvnc_descriptor(opts)
        .map_err(|e| StackError::Server(ava_server::ServerError::Handler(e.to_string())))?;
    Ok(ApiStack::new(
        descriptor,
        move || Box::new(MvncHandler::new(nc.clone())) as Box<dyn ava_server::ApiHandler>,
        config,
    ))
}

/// Convenience: an `Arc`d descriptor for effort reporting and tooling.
pub fn opencl_descriptor() -> Arc<ava_spec::ApiDescriptor> {
    specs::opencl_descriptor(LowerOptions::default()).expect("bundled OpenCL spec compiles")
}

/// Convenience: the MVNC descriptor.
pub fn mvnc_descriptor() -> Arc<ava_spec::ApiDescriptor> {
    specs::mvnc_descriptor(LowerOptions::default()).expect("bundled MVNC spec compiles")
}
