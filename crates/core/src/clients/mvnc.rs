//! The NCSDK guest library: implements [`MvncApi`] by forwarding through
//! the AvA stack.

use std::sync::Arc;

use ava_guest::{CallResult, GuestLibrary};
use ava_wire::{copy_payload, FnId, Value};
use simnc::status::{NcError, NcResult, MVNC_ERROR, MVNC_OK};
use simnc::{DeviceOption, GraphOption, MvncApi, NcDevice, NcGraph};

use super::call_by_id;

use crate::specs::{mvnc_code as code, EntryPoint, Nc};

/// Placeholder requesting an out-parameter.
const WANT: Value = Value::U64(1);

/// The remoting NCSDK client.
pub struct MvncClient {
    lib: Arc<GuestLibrary>,
    /// `FnId` of every entry point, indexed by [`Nc`].
    fns: Vec<Option<FnId>>,
}

impl MvncClient {
    /// Wraps a guest library configured with the MVNC descriptor.
    pub fn new(lib: Arc<GuestLibrary>) -> Self {
        let fns = Nc::resolve(lib.descriptor());
        MvncClient { lib, fns }
    }

    /// The underlying guest library (for stats inspection).
    pub fn library(&self) -> &Arc<GuestLibrary> {
        &self.lib
    }

    fn call(&self, func: Nc, args: Vec<Value>) -> NcResult<CallResult> {
        call_by_id(&self.lib, self.fns[func as usize], args).map_err(|_| NcError(MVNC_ERROR))
    }

    fn status(result: &CallResult) -> NcResult<()> {
        match result.ret.as_i64() {
            Some(code) if code == i64::from(MVNC_OK) => Ok(()),
            Some(code) => Err(NcError(code as i32)),
            None => Err(NcError(MVNC_ERROR)),
        }
    }
}

impl MvncApi for MvncClient {
    fn get_device_name(&self, index: usize) -> NcResult<String> {
        let r = self.call(
            Nc::GetDeviceName,
            vec![Value::I32(index as i32), WANT, Value::U32(64)],
        )?;
        Self::status(&r)?;
        let raw = r
            .output(1)
            .and_then(Value::as_bytes)
            .ok_or(NcError(MVNC_ERROR))?;
        let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
        String::from_utf8(raw[..end].to_vec()).map_err(|_| NcError(MVNC_ERROR))
    }

    fn open_device(&self, name: &str) -> NcResult<NcDevice> {
        let r = self.call(Nc::OpenDevice, vec![Value::Str(name.to_string()), WANT])?;
        Self::status(&r)?;
        r.output(1)
            .and_then(Value::as_handle)
            .map(NcDevice)
            .ok_or(NcError(MVNC_ERROR))
    }

    fn close_device(&self, device: NcDevice) -> NcResult<()> {
        Self::status(&self.call(Nc::CloseDevice, vec![Value::Handle(device.0)])?)
    }

    fn allocate_graph(&self, device: NcDevice, graph_blob: &[u8]) -> NcResult<NcGraph> {
        let r = self.call(
            Nc::AllocateGraph,
            vec![
                Value::Handle(device.0),
                WANT,
                Value::Bytes(copy_payload(graph_blob)),
                Value::U32(graph_blob.len() as u32),
            ],
        )?;
        Self::status(&r)?;
        r.output(1)
            .and_then(Value::as_handle)
            .map(NcGraph)
            .ok_or(NcError(MVNC_ERROR))
    }

    fn deallocate_graph(&self, graph: NcGraph) -> NcResult<()> {
        Self::status(&self.call(Nc::DeallocateGraph, vec![Value::Handle(graph.0)])?)
    }

    fn load_tensor(&self, graph: NcGraph, tensor: &[u8], user_param: u64) -> NcResult<()> {
        Self::status(&self.call(
            Nc::LoadTensor,
            vec![
                Value::Handle(graph.0),
                Value::Bytes(copy_payload(tensor)),
                Value::U32(tensor.len() as u32),
                Value::U64(user_param),
            ],
        )?)
    }

    fn get_result(&self, graph: NcGraph) -> NcResult<(Vec<u8>, u64)> {
        // Capacity generous enough for any classifier output in this repo;
        // result_size reports the true length.
        let cap = 1 << 20;
        let r = self.call(
            Nc::GetResult,
            vec![Value::Handle(graph.0), WANT, Value::U32(cap), WANT, WANT],
        )?;
        Self::status(&r)?;
        let data = r
            .output(1)
            .and_then(Value::as_bytes)
            .ok_or(NcError(MVNC_ERROR))?
            .to_vec();
        let user_param = r
            .output(4)
            .and_then(Value::as_u64)
            .ok_or(NcError(MVNC_ERROR))?;
        Ok((data, user_param))
    }

    fn set_graph_option(&self, graph: NcGraph, option: GraphOption, value: u64) -> NcResult<()> {
        let opt = match option {
            GraphOption::DontBlock => code::MVNC_DONT_BLOCK,
            GraphOption::TimeTaken => code::MVNC_TIME_TAKEN,
        };
        Self::status(&self.call(
            Nc::SetGraphOption,
            vec![Value::Handle(graph.0), Value::I32(opt), Value::U64(value)],
        )?)
    }

    fn get_graph_option(&self, graph: NcGraph, option: GraphOption) -> NcResult<u64> {
        let opt = match option {
            GraphOption::DontBlock => code::MVNC_DONT_BLOCK,
            GraphOption::TimeTaken => code::MVNC_TIME_TAKEN,
        };
        let r = self.call(
            Nc::GetGraphOption,
            vec![Value::Handle(graph.0), Value::I32(opt), WANT],
        )?;
        Self::status(&r)?;
        r.output(2)
            .and_then(Value::as_u64)
            .ok_or(NcError(MVNC_ERROR))
    }

    fn set_device_option(
        &self,
        device: NcDevice,
        option: DeviceOption,
        value: u64,
    ) -> NcResult<()> {
        let opt = match option {
            DeviceOption::ThermalThrottle => code::MVNC_THERMAL_THROTTLE,
            DeviceOption::MaxExecutors => code::MVNC_MAX_EXECUTORS,
        };
        Self::status(&self.call(
            Nc::SetDeviceOption,
            vec![Value::Handle(device.0), Value::I32(opt), Value::U64(value)],
        )?)
    }

    fn get_device_option(&self, device: NcDevice, option: DeviceOption) -> NcResult<u64> {
        let opt = match option {
            DeviceOption::ThermalThrottle => code::MVNC_THERMAL_THROTTLE,
            DeviceOption::MaxExecutors => code::MVNC_MAX_EXECUTORS,
        };
        let r = self.call(
            Nc::GetDeviceOption,
            vec![Value::Handle(device.0), Value::I32(opt), WANT],
        )?;
        Self::status(&r)?;
        r.output(2)
            .and_then(Value::as_u64)
            .ok_or(NcError(MVNC_ERROR))
    }
}
