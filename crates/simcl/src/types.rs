//! Public object handles and parameter types of the OpenCL subset.

/// Opaque handle newtype constructor.
macro_rules! handle_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u64);

        impl $name {
            /// The raw handle value (what crosses the wire).
            pub fn raw(self) -> u64 {
                self.0
            }
        }
    };
}

handle_type!(
    /// An OpenCL platform (`cl_platform_id`).
    ClPlatform
);
handle_type!(
    /// An OpenCL device (`cl_device_id`).
    ClDevice
);
handle_type!(
    /// An OpenCL context (`cl_context`).
    ClContext
);
handle_type!(
    /// An in-order command queue (`cl_command_queue`).
    ClQueue
);
handle_type!(
    /// A memory object (`cl_mem`), either a buffer or a simple image.
    ClMem
);
handle_type!(
    /// A program object (`cl_program`).
    ClProgram
);
handle_type!(
    /// A kernel object (`cl_kernel`).
    ClKernel
);
handle_type!(
    /// An event object (`cl_event`).
    ClEvent
);

/// `cl_device_type` subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// Any device.
    All,
    /// GPU-class devices only.
    Gpu,
    /// Accelerator-class devices only.
    Accelerator,
}

/// Buffer allocation flags (`cl_mem_flags` subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemFlags {
    /// `CL_MEM_READ_ONLY` (from the kernel's perspective).
    pub read_only: bool,
    /// `CL_MEM_WRITE_ONLY`.
    pub write_only: bool,
    /// `CL_MEM_COPY_HOST_PTR`: initialize from host data at creation.
    pub copy_host_ptr: bool,
}

impl MemFlags {
    /// Read-write buffer (the default).
    pub fn read_write() -> Self {
        MemFlags::default()
    }

    /// Read-only buffer.
    pub fn read_only() -> Self {
        MemFlags {
            read_only: true,
            ..Default::default()
        }
    }

    /// Write-only buffer.
    pub fn write_only() -> Self {
        MemFlags {
            write_only: true,
            ..Default::default()
        }
    }

    /// Encodes to the OpenCL bitfield (for marshaling).
    pub fn to_bits(self) -> u64 {
        let mut bits = 0u64;
        if self.read_only {
            bits |= 1 << 2; // CL_MEM_READ_ONLY
        }
        if self.write_only {
            bits |= 1 << 1; // CL_MEM_WRITE_ONLY
        }
        if !self.read_only && !self.write_only {
            bits |= 1 << 0; // CL_MEM_READ_WRITE
        }
        if self.copy_host_ptr {
            bits |= 1 << 5; // CL_MEM_COPY_HOST_PTR
        }
        bits
    }

    /// Decodes from the OpenCL bitfield.
    pub fn from_bits(bits: u64) -> Self {
        MemFlags {
            read_only: bits & (1 << 2) != 0,
            write_only: bits & (1 << 1) != 0,
            copy_host_ptr: bits & (1 << 5) != 0,
        }
    }
}

/// Command-queue properties (`cl_command_queue_properties` subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueProps {
    /// `CL_QUEUE_PROFILING_ENABLE`: record event timestamps.
    pub profiling: bool,
}

impl QueueProps {
    /// Encodes to the OpenCL bitfield.
    pub fn to_bits(self) -> u64 {
        if self.profiling {
            1 << 1
        } else {
            0
        }
    }

    /// Decodes from the OpenCL bitfield.
    pub fn from_bits(bits: u64) -> Self {
        QueueProps {
            profiling: bits & (1 << 1) != 0,
        }
    }
}

/// A value bound to a kernel argument slot via `clSetKernelArg`.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelArg {
    /// A `__global` memory object.
    Mem(ClMem),
    /// A `__local` scratch allocation of the given byte size.
    Local(usize),
    /// A by-value scalar, passed as its native byte representation.
    Scalar(Vec<u8>),
}

impl KernelArg {
    /// Convenience constructor for a `u32`/`cl_uint` scalar argument.
    pub fn from_u32(v: u32) -> Self {
        KernelArg::Scalar(v.to_le_bytes().to_vec())
    }

    /// Convenience constructor for an `i32`/`cl_int` scalar argument.
    pub fn from_i32(v: i32) -> Self {
        KernelArg::Scalar(v.to_le_bytes().to_vec())
    }

    /// Convenience constructor for an `f32`/`float` scalar argument.
    pub fn from_f32(v: f32) -> Self {
        KernelArg::Scalar(v.to_le_bytes().to_vec())
    }

    /// Convenience constructor for a `u64`/`size_t` scalar argument.
    pub fn from_usize(v: usize) -> Self {
        KernelArg::Scalar((v as u64).to_le_bytes().to_vec())
    }
}

/// `clGetDeviceInfo` queries (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceInfo {
    /// Device name string.
    Name,
    /// Vendor string.
    Vendor,
    /// Number of parallel compute units.
    MaxComputeUnits,
    /// Maximum work-group size.
    MaxWorkGroupSize,
    /// Global memory size in bytes.
    GlobalMemSize,
    /// Local (work-group scratch) memory size in bytes.
    LocalMemSize,
    /// Device type.
    Type,
}

/// `clGetPlatformInfo` queries (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformInfo {
    /// Platform name.
    Name,
    /// Platform vendor.
    Vendor,
    /// Platform version string.
    Version,
}

/// A heterogeneous info query result.
#[derive(Debug, Clone, PartialEq)]
pub enum InfoValue {
    /// String-valued info.
    Str(String),
    /// Integer-valued info.
    UInt(u64),
}

impl InfoValue {
    /// The integer value, if this is integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            InfoValue::UInt(v) => Some(*v),
            InfoValue::Str(_) => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            InfoValue::Str(s) => Some(s),
            InfoValue::UInt(_) => None,
        }
    }
}

/// Execution status of an event (`cl_int` execution status values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventStatus {
    /// Command queued on the host.
    Queued,
    /// Command submitted to the device.
    Submitted,
    /// Command running on the device.
    Running,
    /// Command finished successfully.
    Complete,
    /// Command failed with the given status code.
    Failed(i32),
}

impl EventStatus {
    /// Encodes to the OpenCL execution-status integer.
    pub fn to_cl(self) -> i32 {
        match self {
            EventStatus::Queued => 3,    // CL_QUEUED
            EventStatus::Submitted => 2, // CL_SUBMITTED
            EventStatus::Running => 1,   // CL_RUNNING
            EventStatus::Complete => 0,  // CL_COMPLETE
            EventStatus::Failed(code) => code,
        }
    }

    /// Decodes from the OpenCL execution-status integer.
    pub fn from_cl(v: i32) -> Self {
        match v {
            3 => EventStatus::Queued,
            2 => EventStatus::Submitted,
            1 => EventStatus::Running,
            0 => EventStatus::Complete,
            code => EventStatus::Failed(code),
        }
    }
}

/// Event timestamps from `clGetEventProfilingInfo`, in nanoseconds since
/// the device epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfilingInfo {
    /// `CL_PROFILING_COMMAND_QUEUED`.
    pub queued: u64,
    /// `CL_PROFILING_COMMAND_SUBMIT`.
    pub submitted: u64,
    /// `CL_PROFILING_COMMAND_START`.
    pub started: u64,
    /// `CL_PROFILING_COMMAND_END`.
    pub ended: u64,
}

impl ProfilingInfo {
    /// Device-side execution time.
    pub fn duration_nanos(&self) -> u64 {
        self.ended.saturating_sub(self.started)
    }
}

/// Description of a simple 2D image (`clCreateImage` subset): images are
/// stored as row-major buffers of `width * height * elem_size` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageDesc {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Bytes per pixel.
    pub elem_size: usize,
}

impl ImageDesc {
    /// Total byte size of the image, or `None` when it overflows `usize`.
    pub fn byte_len(&self) -> Option<usize> {
        self.width
            .checked_mul(self.height)?
            .checked_mul(self.elem_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_flags_round_trip_bits() {
        for flags in [
            MemFlags::read_write(),
            MemFlags::read_only(),
            MemFlags::write_only(),
            MemFlags {
                copy_host_ptr: true,
                ..MemFlags::read_only()
            },
        ] {
            assert_eq!(MemFlags::from_bits(flags.to_bits()), flags);
        }
    }

    #[test]
    fn queue_props_round_trip_bits() {
        for props in [QueueProps::default(), QueueProps { profiling: true }] {
            assert_eq!(QueueProps::from_bits(props.to_bits()), props);
        }
    }

    #[test]
    fn event_status_round_trips() {
        for st in [
            EventStatus::Queued,
            EventStatus::Submitted,
            EventStatus::Running,
            EventStatus::Complete,
            EventStatus::Failed(-54),
        ] {
            assert_eq!(EventStatus::from_cl(st.to_cl()), st);
        }
    }

    #[test]
    fn scalar_arg_encodings() {
        assert_eq!(
            KernelArg::from_u32(0x01020304),
            KernelArg::Scalar(vec![4, 3, 2, 1])
        );
        assert_eq!(
            KernelArg::from_f32(1.0),
            KernelArg::Scalar(1.0f32.to_le_bytes().to_vec())
        );
    }

    #[test]
    fn profiling_duration() {
        let p = ProfilingInfo {
            queued: 0,
            submitted: 10,
            started: 100,
            ended: 350,
        };
        assert_eq!(p.duration_nanos(), 250);
    }

    #[test]
    fn image_desc_len() {
        let d = ImageDesc {
            width: 64,
            height: 32,
            elem_size: 4,
        };
        assert_eq!(d.byte_len(), Some(8192));
        let huge = ImageDesc {
            width: (1 << 62) + 16,
            height: 4,
            elem_size: 1,
        };
        assert_eq!(huge.byte_len(), None);
    }
}
