//! The NCSDK API-server binding: executes forwarded `mvnc*` calls against
//! the native silo (`simnc`).

use ava_server::{ApiHandler, HandlerOutput, Result, ServerError};
use ava_spec::FunctionDesc;
use ava_wire::Value;
use simnc::status::MVNC_OK;
use simnc::{DeviceOption, GraphOption, MvncApi, NcDevice, NcGraph, SimNc};

use crate::specs::mvnc_code as code;

/// The MVNC handler bound to one `SimNc` instance.
pub struct MvncHandler {
    nc: SimNc,
}

impl MvncHandler {
    /// Creates a handler executing against `nc`.
    pub fn new(nc: SimNc) -> Self {
        MvncHandler { nc }
    }
}

fn handle(args: &[Value], i: usize) -> Result<u64> {
    args.get(i)
        .and_then(Value::as_handle)
        .ok_or_else(|| ServerError::BadArguments(format!("argument {i} is not a handle")))
}

fn uint(args: &[Value], i: usize) -> Result<u64> {
    args.get(i)
        .and_then(Value::as_u64)
        .ok_or_else(|| ServerError::BadArguments(format!("argument {i} is not an integer")))
}

fn int(args: &[Value], i: usize) -> Result<i64> {
    args.get(i)
        .and_then(Value::as_i64)
        .ok_or_else(|| ServerError::BadArguments(format!("argument {i} is not an integer")))
}

fn bytes(args: &[Value], i: usize) -> Result<&[u8]> {
    match args.get(i) {
        Some(Value::Bytes(b)) => Ok(b),
        other => Err(ServerError::BadArguments(format!(
            "argument {i} is not a buffer: {other:?}"
        ))),
    }
}

fn string(args: &[Value], i: usize) -> Result<&str> {
    args.get(i)
        .and_then(Value::as_str)
        .ok_or_else(|| ServerError::BadArguments(format!("argument {i} is not a string")))
}

fn wants(args: &[Value], i: usize) -> bool {
    args.get(i).map(|v| !v.is_null()).unwrap_or(false)
}

fn status_ret(code: i32) -> HandlerOutput {
    HandlerOutput::ret(Value::I32(code))
}

impl ApiHandler for MvncHandler {
    fn dispatch(&mut self, func: &FunctionDesc, args: &[Value]) -> Result<HandlerOutput> {
        match func.name.as_str() {
            "mvncGetDeviceName" => {
                let index = int(args, 0)? as usize;
                let cap = uint(args, 2)? as usize;
                match self.nc.get_device_name(index) {
                    Ok(name) => {
                        let mut out = status_ret(MVNC_OK);
                        if wants(args, 1) {
                            let mut raw = name.into_bytes();
                            raw.push(0); // NUL terminator, as the C API would
                            raw.truncate(cap);
                            out.outputs.push((1, Value::Bytes(raw.into())));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(e.0)),
                }
            }
            "mvncOpenDevice" => {
                let name = string(args, 0)?;
                match self.nc.open_device(name) {
                    Ok(dev) => {
                        let mut out = status_ret(MVNC_OK);
                        out.outputs.push((1, Value::Handle(dev.0)));
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(e.0)),
                }
            }
            "mvncCloseDevice" => {
                let dev = NcDevice(handle(args, 0)?);
                Ok(status_ret(
                    self.nc
                        .close_device(dev)
                        .err()
                        .map(|e| e.0)
                        .unwrap_or(MVNC_OK),
                ))
            }
            "mvncAllocateGraph" => {
                let dev = NcDevice(handle(args, 0)?);
                let blob = bytes(args, 2)?;
                match self.nc.allocate_graph(dev, blob) {
                    Ok(graph) => {
                        let mut out = status_ret(MVNC_OK);
                        out.outputs.push((1, Value::Handle(graph.0)));
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(e.0)),
                }
            }
            "mvncDeallocateGraph" => {
                let graph = NcGraph(handle(args, 0)?);
                Ok(status_ret(
                    self.nc
                        .deallocate_graph(graph)
                        .err()
                        .map(|e| e.0)
                        .unwrap_or(MVNC_OK),
                ))
            }
            "mvncLoadTensor" => {
                let graph = NcGraph(handle(args, 0)?);
                let tensor = bytes(args, 1)?;
                let user_param = uint(args, 3)?;
                Ok(status_ret(
                    self.nc
                        .load_tensor(graph, tensor, user_param)
                        .err()
                        .map(|e| e.0)
                        .unwrap_or(MVNC_OK),
                ))
            }
            "mvncGetResult" => {
                let graph = NcGraph(handle(args, 0)?);
                let cap = uint(args, 2)? as usize;
                match self.nc.get_result(graph) {
                    Ok((mut data, user_param)) => {
                        let full = data.len();
                        data.truncate(cap);
                        let mut out = status_ret(MVNC_OK);
                        if wants(args, 1) {
                            out.outputs.push((1, Value::Bytes(data.into())));
                        }
                        if wants(args, 3) {
                            out.outputs.push((3, Value::U32(full as u32)));
                        }
                        if wants(args, 4) {
                            out.outputs.push((4, Value::U64(user_param)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(e.0)),
                }
            }
            "mvncSetGraphOption" => {
                let graph = NcGraph(handle(args, 0)?);
                let option = match i32::try_from(int(args, 1)?) {
                    Ok(code::MVNC_DONT_BLOCK) => GraphOption::DontBlock,
                    Ok(code::MVNC_TIME_TAKEN) => GraphOption::TimeTaken,
                    _ => return Ok(status_ret(simnc::status::MVNC_INVALID_PARAMETERS)),
                };
                let value = uint(args, 2)?;
                Ok(status_ret(
                    self.nc
                        .set_graph_option(graph, option, value)
                        .err()
                        .map(|e| e.0)
                        .unwrap_or(MVNC_OK),
                ))
            }
            "mvncGetGraphOption" => {
                let graph = NcGraph(handle(args, 0)?);
                let option = match i32::try_from(int(args, 1)?) {
                    Ok(code::MVNC_DONT_BLOCK) => GraphOption::DontBlock,
                    Ok(code::MVNC_TIME_TAKEN) => GraphOption::TimeTaken,
                    _ => return Ok(status_ret(simnc::status::MVNC_INVALID_PARAMETERS)),
                };
                match self.nc.get_graph_option(graph, option) {
                    Ok(value) => {
                        let mut out = status_ret(MVNC_OK);
                        if wants(args, 2) {
                            out.outputs.push((2, Value::U64(value)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(e.0)),
                }
            }
            "mvncSetDeviceOption" => {
                let dev = NcDevice(handle(args, 0)?);
                let option = match i32::try_from(int(args, 1)?) {
                    Ok(code::MVNC_THERMAL_THROTTLE) => DeviceOption::ThermalThrottle,
                    Ok(code::MVNC_MAX_EXECUTORS) => DeviceOption::MaxExecutors,
                    _ => return Ok(status_ret(simnc::status::MVNC_INVALID_PARAMETERS)),
                };
                let value = uint(args, 2)?;
                Ok(status_ret(
                    self.nc
                        .set_device_option(dev, option, value)
                        .err()
                        .map(|e| e.0)
                        .unwrap_or(MVNC_OK),
                ))
            }
            "mvncGetDeviceOption" => {
                let dev = NcDevice(handle(args, 0)?);
                let option = match i32::try_from(int(args, 1)?) {
                    Ok(code::MVNC_THERMAL_THROTTLE) => DeviceOption::ThermalThrottle,
                    Ok(code::MVNC_MAX_EXECUTORS) => DeviceOption::MaxExecutors,
                    _ => return Ok(status_ret(simnc::status::MVNC_INVALID_PARAMETERS)),
                };
                match self.nc.get_device_option(dev, option) {
                    Ok(value) => {
                        let mut out = status_ret(MVNC_OK);
                        if wants(args, 2) {
                            out.outputs.push((2, Value::U64(value)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(e.0)),
                }
            }
            other => Err(ServerError::Handler(format!(
                "unhandled function `{other}`"
            ))),
        }
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
