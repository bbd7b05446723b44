//! The NCSDK API-server binding: executes forwarded `mvnc*` calls against
//! the native silo (`simnc`).

use ava_server::{ApiHandler, HandlerOutput, Result};
use ava_spec::FunctionDesc;
use ava_wire::Value;
use simnc::status::MVNC_INVALID_PARAMETERS;
use simnc::{DeviceOption, GraphOption, MvncApi, NcDevice, NcError, NcGraph, NcResult, SimNc};

use super::{done, reply, Args, Entries};
use crate::specs::{mvnc_code as code, Nc};

/// The MVNC handler bound to one `SimNc` instance.
pub struct MvncHandler {
    nc: SimNc,
    entries: Entries<Nc>,
}

impl MvncHandler {
    /// Creates a handler executing against `nc`.
    pub fn new(nc: SimNc) -> Self {
        MvncHandler {
            nc,
            entries: Entries::new(),
        }
    }
}

/// The graph option argument 1 names; `MVNC_INVALID_PARAMETERS` for
/// any other code.
fn graph_option(args: Args) -> Result<NcResult<GraphOption>> {
    Ok(match i32::try_from(args.int(1)?) {
        Ok(code::MVNC_DONT_BLOCK) => Ok(GraphOption::DontBlock),
        Ok(code::MVNC_TIME_TAKEN) => Ok(GraphOption::TimeTaken),
        _ => Err(NcError(MVNC_INVALID_PARAMETERS)),
    })
}

/// The device option argument 1 names, as [`graph_option`].
fn device_option(args: Args) -> Result<NcResult<DeviceOption>> {
    Ok(match i32::try_from(args.int(1)?) {
        Ok(code::MVNC_THERMAL_THROTTLE) => Ok(DeviceOption::ThermalThrottle),
        Ok(code::MVNC_MAX_EXECUTORS) => Ok(DeviceOption::MaxExecutors),
        _ => Err(NcError(MVNC_INVALID_PARAMETERS)),
    })
}

impl ApiHandler for MvncHandler {
    fn dispatch(&mut self, func: &FunctionDesc, args: &[Value]) -> Result<HandlerOutput> {
        let args = Args(args);
        let nc = &self.nc;
        let option_out = |out: &mut HandlerOutput, value| args.put(out, 2, || Value::U64(value));
        Ok(match self.entries.of(func)? {
            Nc::GetDeviceName => {
                let index = args.int(0)? as usize;
                let cap = args.usize(2)?;
                reply(nc.get_device_name(index), |out, name| {
                    args.put(out, 1, || {
                        let mut raw = name.into_bytes();
                        raw.push(0); // NUL terminator, as the C API would
                        raw.truncate(cap);
                        Value::Bytes(raw.into())
                    })
                })
            }
            Nc::OpenDevice => reply(nc.open_device(args.string(0)?), |out, dev| {
                out.outputs.push((1, Value::Handle(dev.0)))
            }),
            Nc::CloseDevice => done(nc.close_device(NcDevice(args.handle(0)?))),
            Nc::AllocateGraph => {
                let dev = NcDevice(args.handle(0)?);
                reply(nc.allocate_graph(dev, args.bytes(2)?), |out, graph| {
                    out.outputs.push((1, Value::Handle(graph.0)))
                })
            }
            Nc::DeallocateGraph => done(nc.deallocate_graph(NcGraph(args.handle(0)?))),
            Nc::LoadTensor => {
                let graph = NcGraph(args.handle(0)?);
                done(nc.load_tensor(graph, args.bytes(1)?, args.uint(3)?))
            }
            Nc::GetResult => {
                let graph = NcGraph(args.handle(0)?);
                let cap = args.usize(2)?;
                reply(nc.get_result(graph), |out, (mut data, user_param)| {
                    let full = data.len();
                    data.truncate(cap);
                    args.put(out, 1, || Value::Bytes(data.into()));
                    args.put(out, 3, || Value::U32(full as u32));
                    args.put(out, 4, || Value::U64(user_param));
                })
            }
            Nc::SetGraphOption => {
                let graph = NcGraph(args.handle(0)?);
                let value = args.uint(2)?;
                done(graph_option(args)?.and_then(|o| nc.set_graph_option(graph, o, value)))
            }
            Nc::GetGraphOption => {
                let graph = NcGraph(args.handle(0)?);
                let value = graph_option(args)?.and_then(|o| nc.get_graph_option(graph, o));
                reply(value, option_out)
            }
            Nc::SetDeviceOption => {
                let dev = NcDevice(args.handle(0)?);
                let value = args.uint(2)?;
                done(device_option(args)?.and_then(|o| nc.set_device_option(dev, o, value)))
            }
            Nc::GetDeviceOption => {
                let dev = NcDevice(args.handle(0)?);
                let value = device_option(args)?.and_then(|o| nc.get_device_option(dev, o));
                reply(value, option_out)
            }
        })
    }

    fn snapshot_object(&mut self, _kind: &str, _silo: u64) -> Option<Vec<u8>> {
        // NCS objects hold no guest-visible device memory: graphs are
        // reconstructed by replaying mvncAllocateGraph (whose recorded
        // arguments include the blob).
        None
    }

    fn restore_object(&mut self, _kind: &str, _silo: u64, _data: &[u8]) -> bool {
        false
    }

    fn drop_object(&mut self, kind: &str, silo: u64) -> bool {
        match kind {
            "mvncGraphHandle" => self.nc.deallocate_graph(NcGraph(silo)).is_ok(),
            "mvncDeviceHandle" => self.nc.close_device(NcDevice(silo)).is_ok(),
            _ => false,
        }
    }
}
