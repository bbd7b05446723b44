//! OpenCL status codes and the error type.
//!
//! Numeric values match the Khronos `cl.h` definitions so that status codes
//! marshaled through the AvA stack are bit-compatible with what a C client
//! would observe.

use std::fmt;

/// `CL_SUCCESS`.
pub const CL_SUCCESS: i32 = 0;
/// `CL_DEVICE_NOT_FOUND`.
pub const CL_DEVICE_NOT_FOUND: i32 = -1;
/// `CL_MEM_OBJECT_ALLOCATION_FAILURE`.
pub const CL_MEM_OBJECT_ALLOCATION_FAILURE: i32 = -4;
/// `CL_OUT_OF_RESOURCES`.
pub const CL_OUT_OF_RESOURCES: i32 = -5;
/// `CL_OUT_OF_HOST_MEMORY`.
pub const CL_OUT_OF_HOST_MEMORY: i32 = -6;
/// `CL_PROFILING_INFO_NOT_AVAILABLE`.
pub const CL_PROFILING_INFO_NOT_AVAILABLE: i32 = -7;
/// `CL_BUILD_PROGRAM_FAILURE`.
pub const CL_BUILD_PROGRAM_FAILURE: i32 = -11;
/// `CL_INVALID_VALUE`.
pub const CL_INVALID_VALUE: i32 = -30;
/// `CL_INVALID_DEVICE`.
pub const CL_INVALID_DEVICE: i32 = -33;
/// `CL_INVALID_CONTEXT`.
pub const CL_INVALID_CONTEXT: i32 = -34;
/// `CL_INVALID_QUEUE_PROPERTIES`.
pub const CL_INVALID_QUEUE_PROPERTIES: i32 = -35;
/// `CL_INVALID_COMMAND_QUEUE`.
pub const CL_INVALID_COMMAND_QUEUE: i32 = -36;
/// `CL_INVALID_MEM_OBJECT`.
pub const CL_INVALID_MEM_OBJECT: i32 = -38;
/// `CL_INVALID_IMAGE_SIZE`.
pub const CL_INVALID_IMAGE_SIZE: i32 = -40;
/// `CL_INVALID_BINARY`.
pub const CL_INVALID_BINARY: i32 = -42;
/// `CL_INVALID_PROGRAM`.
pub const CL_INVALID_PROGRAM: i32 = -44;
/// `CL_INVALID_PROGRAM_EXECUTABLE`.
pub const CL_INVALID_PROGRAM_EXECUTABLE: i32 = -45;
/// `CL_INVALID_KERNEL_NAME`.
pub const CL_INVALID_KERNEL_NAME: i32 = -46;
/// `CL_INVALID_KERNEL`.
pub const CL_INVALID_KERNEL: i32 = -48;
/// `CL_INVALID_ARG_INDEX`.
pub const CL_INVALID_ARG_INDEX: i32 = -49;
/// `CL_INVALID_ARG_VALUE`.
pub const CL_INVALID_ARG_VALUE: i32 = -50;
/// `CL_INVALID_ARG_SIZE`.
pub const CL_INVALID_ARG_SIZE: i32 = -51;
/// `CL_INVALID_KERNEL_ARGS`.
pub const CL_INVALID_KERNEL_ARGS: i32 = -52;
/// `CL_INVALID_WORK_DIMENSION`.
pub const CL_INVALID_WORK_DIMENSION: i32 = -53;
/// `CL_INVALID_WORK_GROUP_SIZE`.
pub const CL_INVALID_WORK_GROUP_SIZE: i32 = -54;
/// `CL_INVALID_EVENT_WAIT_LIST`.
pub const CL_INVALID_EVENT_WAIT_LIST: i32 = -57;
/// `CL_INVALID_EVENT`.
pub const CL_INVALID_EVENT: i32 = -58;
/// `CL_INVALID_OPERATION`.
pub const CL_INVALID_OPERATION: i32 = -59;
/// `CL_INVALID_BUFFER_SIZE`.
pub const CL_INVALID_BUFFER_SIZE: i32 = -61;

/// An OpenCL error: any status code other than `CL_SUCCESS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClError(pub i32);

impl ClError {
    /// Symbolic name of the status code, if known.
    pub fn name(self) -> &'static str {
        match self.0 {
            CL_SUCCESS => "CL_SUCCESS",
            CL_DEVICE_NOT_FOUND => "CL_DEVICE_NOT_FOUND",
            CL_MEM_OBJECT_ALLOCATION_FAILURE => "CL_MEM_OBJECT_ALLOCATION_FAILURE",
            CL_OUT_OF_RESOURCES => "CL_OUT_OF_RESOURCES",
            CL_OUT_OF_HOST_MEMORY => "CL_OUT_OF_HOST_MEMORY",
            CL_PROFILING_INFO_NOT_AVAILABLE => "CL_PROFILING_INFO_NOT_AVAILABLE",
            CL_BUILD_PROGRAM_FAILURE => "CL_BUILD_PROGRAM_FAILURE",
            CL_INVALID_VALUE => "CL_INVALID_VALUE",
            CL_INVALID_DEVICE => "CL_INVALID_DEVICE",
            CL_INVALID_CONTEXT => "CL_INVALID_CONTEXT",
            CL_INVALID_QUEUE_PROPERTIES => "CL_INVALID_QUEUE_PROPERTIES",
            CL_INVALID_COMMAND_QUEUE => "CL_INVALID_COMMAND_QUEUE",
            CL_INVALID_MEM_OBJECT => "CL_INVALID_MEM_OBJECT",
            CL_INVALID_IMAGE_SIZE => "CL_INVALID_IMAGE_SIZE",
            CL_INVALID_BINARY => "CL_INVALID_BINARY",
            CL_INVALID_PROGRAM => "CL_INVALID_PROGRAM",
            CL_INVALID_PROGRAM_EXECUTABLE => "CL_INVALID_PROGRAM_EXECUTABLE",
            CL_INVALID_KERNEL_NAME => "CL_INVALID_KERNEL_NAME",
            CL_INVALID_KERNEL => "CL_INVALID_KERNEL",
            CL_INVALID_ARG_INDEX => "CL_INVALID_ARG_INDEX",
            CL_INVALID_ARG_VALUE => "CL_INVALID_ARG_VALUE",
            CL_INVALID_ARG_SIZE => "CL_INVALID_ARG_SIZE",
            CL_INVALID_KERNEL_ARGS => "CL_INVALID_KERNEL_ARGS",
            CL_INVALID_WORK_DIMENSION => "CL_INVALID_WORK_DIMENSION",
            CL_INVALID_WORK_GROUP_SIZE => "CL_INVALID_WORK_GROUP_SIZE",
            CL_INVALID_EVENT_WAIT_LIST => "CL_INVALID_EVENT_WAIT_LIST",
            CL_INVALID_EVENT => "CL_INVALID_EVENT",
            CL_INVALID_OPERATION => "CL_INVALID_OPERATION",
            CL_INVALID_BUFFER_SIZE => "CL_INVALID_BUFFER_SIZE",
            _ => "CL_UNKNOWN_ERROR",
        }
    }
}

impl fmt::Display for ClError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.0)
    }
}

impl std::error::Error for ClError {}

/// Result alias for OpenCL-style calls.
pub type ClResult<T> = Result<T, ClError>;

/// Converts a raw status code into a `ClResult<()>`.
pub fn status_to_result(status: i32) -> ClResult<()> {
    if status == CL_SUCCESS {
        Ok(())
    } else {
        Err(ClError(status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_values_agree() {
        assert_eq!(ClError(CL_INVALID_VALUE).name(), "CL_INVALID_VALUE");
        assert_eq!(ClError(CL_INVALID_VALUE).0, -30);
        assert_eq!(ClError(-9999).name(), "CL_UNKNOWN_ERROR");
    }

    #[test]
    fn status_conversion() {
        assert!(status_to_result(CL_SUCCESS).is_ok());
        assert_eq!(status_to_result(CL_INVALID_KERNEL), Err(ClError(-48)));
    }

    #[test]
    fn display_is_informative() {
        let s = ClError(CL_BUILD_PROGRAM_FAILURE).to_string();
        assert!(s.contains("CL_BUILD_PROGRAM_FAILURE"));
        assert!(s.contains("-11"));
    }
}
