//! The bundled API specifications.
//!
//! The OpenCL and NCSDK headers live in `specs/` at the repository root,
//! together with their CAvA annotation files; this module embeds them and
//! compiles them to runtime descriptors. These are the inputs a developer
//! would hand to CAvA (Figure 2's workflow).

use std::sync::Arc;

use ava_spec::{compile_spec, ApiDescriptor, LowerOptions, MapResolver, Result};
use ava_wire::FnId;

/// The unmodified OpenCL subset header (`specs/CL/cl.h`).
pub const OPENCL_HEADER: &str = include_str!("../../../specs/CL/cl.h");

/// The refined CAvA specification for OpenCL (`specs/CL/opencl.avaspec`).
pub const OPENCL_SPEC: &str = include_str!("../../../specs/CL/opencl.avaspec");

/// The unmodified NCSDK subset header (`specs/mvnc/mvnc.h`).
pub const MVNC_HEADER: &str = include_str!("../../../specs/mvnc/mvnc.h");

/// The refined CAvA specification for the NCSDK (`specs/mvnc/mvnc.avaspec`).
pub const MVNC_SPEC: &str = include_str!("../../../specs/mvnc/mvnc.avaspec");

/// Declares a module of constants that mirror `#define`s of the same name
/// in a bundled header; the typed client and the binding of one API share
/// it. Under test, `ALL` lists every constant for the header check.
macro_rules! header_constants {
    ($(#[$meta:meta])* $module:ident { $($name:ident: $ty:ty = $value:expr;)* }) => {
        $(#[$meta])*
        pub(crate) mod $module {
            $(pub(crate) const $name: $ty = $value;)*

            #[cfg(test)]
            pub(crate) const ALL: &[(&str, i64)] = &[$((stringify!($name), $name as i64),)*];
        }
    };
}

header_constants! {
    /// OpenCL info-query parameter and device-type codes (`specs/CL/cl.h`).
    cl_code {
        CL_PLATFORM_VERSION: u32 = 0x0901;
        CL_PLATFORM_NAME: u32 = 0x0902;
        CL_PLATFORM_VENDOR: u32 = 0x0903;
        CL_DEVICE_NAME: u32 = 0x102B;
        CL_DEVICE_VENDOR: u32 = 0x102C;
        CL_DEVICE_MAX_COMPUTE_UNITS: u32 = 0x1002;
        CL_DEVICE_MAX_WORK_GROUP_SIZE: u32 = 0x1004;
        CL_DEVICE_GLOBAL_MEM_SIZE: u32 = 0x101F;
        CL_DEVICE_LOCAL_MEM_SIZE: u32 = 0x1023;
        CL_DEVICE_TYPE_INFO: u32 = 0x1000;
        CL_DEVICE_TYPE_GPU: u64 = 1 << 2;
        CL_DEVICE_TYPE_ACCELERATOR: u64 = 1 << 3;
        CL_DEVICE_TYPE_ALL: u64 = 0xFFFF_FFFF;
        CL_PROFILING_COMMAND_QUEUED: u32 = 0x1280;
        CL_PROFILING_COMMAND_SUBMIT: u32 = 0x1281;
        CL_PROFILING_COMMAND_START: u32 = 0x1282;
        CL_PROFILING_COMMAND_END: u32 = 0x1283;
    }
}

header_constants! {
    /// NCSDK graph- and device-option codes (`specs/mvnc/mvnc.h`; C `int`).
    mvnc_code {
        MVNC_DONT_BLOCK: i32 = 0;
        MVNC_TIME_TAKEN: i32 = 1;
        MVNC_THERMAL_THROTTLE: i32 = 0;
        MVNC_MAX_EXECUTORS: i32 = 1;
    }
}

/// An API's entry points, declared once by [`fn_table!`] for both its
/// typed client and its binding. The client resolves every entry to the
/// descriptor's `FnId` when it is built; the binding resolves each `FnId`
/// it meets to an entry once, by name. Either way no call compares names.
pub(crate) trait EntryPoint: Copy + Eq + std::fmt::Debug + 'static {
    /// Every entry, in declaration order (an entry's index is its value).
    const ALL: &'static [Self];

    /// The C function name.
    fn name(self) -> &'static str;

    /// The entry named `name`, if the table declares one.
    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|e| e.name() == name)
    }

    /// The `FnId` of every entry, indexed by the entry; `None` where the
    /// descriptor lacks the name.
    fn resolve(desc: &ApiDescriptor) -> Vec<Option<FnId>> {
        Self::ALL
            .iter()
            .map(|e| desc.by_name(e.name()).map(|f| f.id))
            .collect()
    }
}

/// Declares an API's entry points as an enum implementing [`EntryPoint`].
macro_rules! fn_table {
    ($(#[$meta:meta])* $table:ident { $($variant:ident => $name:literal,)* }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum $table {
            $($variant,)*
        }

        impl EntryPoint for $table {
            const ALL: &'static [Self] = &[$(Self::$variant,)*];

            fn name(self) -> &'static str {
                match self {
                    $(Self::$variant => $name,)*
                }
            }
        }
    };
}

fn_table!(
    /// The OpenCL entry points (`specs/CL/opencl.avaspec`).
    Cl {
        GetPlatformIDs => "clGetPlatformIDs",
        GetPlatformInfo => "clGetPlatformInfo",
        GetDeviceIDs => "clGetDeviceIDs",
        GetDeviceInfo => "clGetDeviceInfo",
        CreateContext => "clCreateContext",
        RetainContext => "clRetainContext",
        ReleaseContext => "clReleaseContext",
        GetContextInfo => "clGetContextInfo",
        CreateCommandQueue => "clCreateCommandQueue",
        RetainCommandQueue => "clRetainCommandQueue",
        ReleaseCommandQueue => "clReleaseCommandQueue",
        CreateBuffer => "clCreateBuffer",
        CreateImage => "clCreateImage",
        RetainMemObject => "clRetainMemObject",
        ReleaseMemObject => "clReleaseMemObject",
        GetMemObjectInfo => "clGetMemObjectInfo",
        CreateProgramWithSource => "clCreateProgramWithSource",
        BuildProgram => "clBuildProgram",
        CompileProgram => "clCompileProgram",
        GetProgramBuildInfo => "clGetProgramBuildInfo",
        RetainProgram => "clRetainProgram",
        ReleaseProgram => "clReleaseProgram",
        CreateKernel => "clCreateKernel",
        CreateKernelsInProgram => "clCreateKernelsInProgram",
        SetKernelArgMem => "clSetKernelArgMem",
        SetKernelArgLocal => "clSetKernelArgLocal",
        SetKernelArg => "clSetKernelArg",
        GetKernelWorkGroupInfo => "clGetKernelWorkGroupInfo",
        RetainKernel => "clRetainKernel",
        ReleaseKernel => "clReleaseKernel",
        EnqueueNDRangeKernel => "clEnqueueNDRangeKernel",
        EnqueueTask => "clEnqueueTask",
        EnqueueReadBuffer => "clEnqueueReadBuffer",
        EnqueueWriteBuffer => "clEnqueueWriteBuffer",
        EnqueueCopyBuffer => "clEnqueueCopyBuffer",
        Flush => "clFlush",
        Finish => "clFinish",
        WaitForEvents => "clWaitForEvents",
        GetEventInfo => "clGetEventInfo",
        GetEventProfilingInfo => "clGetEventProfilingInfo",
        RetainEvent => "clRetainEvent",
        ReleaseEvent => "clReleaseEvent",
    }
);

fn_table!(
    /// The NCSDK entry points (`specs/mvnc/mvnc.avaspec`).
    Nc {
        GetDeviceName => "mvncGetDeviceName",
        OpenDevice => "mvncOpenDevice",
        CloseDevice => "mvncCloseDevice",
        AllocateGraph => "mvncAllocateGraph",
        DeallocateGraph => "mvncDeallocateGraph",
        LoadTensor => "mvncLoadTensor",
        GetResult => "mvncGetResult",
        SetGraphOption => "mvncSetGraphOption",
        GetGraphOption => "mvncGetGraphOption",
        SetDeviceOption => "mvncSetDeviceOption",
        GetDeviceOption => "mvncGetDeviceOption",
    }
);

/// Header resolver covering both bundled APIs.
pub fn resolver() -> MapResolver {
    MapResolver::new()
        .with("CL/cl.h", OPENCL_HEADER)
        .with("mvnc/mvnc.h", MVNC_HEADER)
}

/// Compiles the OpenCL specification to a descriptor.
pub fn opencl_descriptor(opts: LowerOptions) -> Result<Arc<ApiDescriptor>> {
    compile_spec(OPENCL_SPEC, &resolver(), opts).map(Arc::new)
}

/// Compiles the NCSDK specification to a descriptor.
pub fn mvnc_descriptor(opts: LowerOptions) -> Result<Arc<ApiDescriptor>> {
    compile_spec(MVNC_SPEC, &resolver(), opts).map(Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_spec::SyncPolicy;

    #[test]
    fn opencl_spec_compiles() {
        let desc = opencl_descriptor(LowerOptions::default()).unwrap();
        assert_eq!(desc.api_name, "opencl");
        assert!(
            desc.functions.len() >= 39,
            "paper virtualized 39 functions; subset has {}",
            desc.functions.len()
        );
    }

    #[test]
    fn mvnc_spec_compiles() {
        let desc = mvnc_descriptor(LowerOptions::default()).unwrap();
        assert_eq!(desc.api_name, "mvnc");
        assert_eq!(desc.functions.len(), 11);
    }

    #[test]
    fn code_tables_match_the_header_defines() {
        let tables = [
            (
                opencl_descriptor(LowerOptions::default()).unwrap(),
                cl_code::ALL,
            ),
            (
                mvnc_descriptor(LowerOptions::default()).unwrap(),
                mvnc_code::ALL,
            ),
        ];
        for (desc, table) in tables {
            for &(name, value) in table {
                assert_eq!(desc.constants.get(name), Some(&value), "{name}");
            }
        }
    }

    /// Every descriptor function resolves to exactly one table entry and
    /// every entry to a function, so no name silently resolves to `None`.
    #[test]
    fn entry_tables_match_the_descriptors() {
        fn check<E: EntryPoint>(desc: &ApiDescriptor) {
            for f in &desc.functions {
                let n = E::ALL.iter().filter(|e| e.name() == f.name).count();
                assert_eq!(n, 1, "`{}` matches {n} entries", f.name);
            }
            for &e in E::ALL {
                assert!(desc.by_name(e.name()).is_some(), "{e:?} names no function");
                assert_eq!(E::from_name(e.name()), Some(e));
            }
        }
        check::<Cl>(&opencl_descriptor(LowerOptions::default()).unwrap());
        check::<Nc>(&mvnc_descriptor(LowerOptions::default()).unwrap());
    }

    #[test]
    fn enqueue_read_buffer_matches_figure4() {
        let desc = opencl_descriptor(LowerOptions::default()).unwrap();
        let f = desc.by_name("clEnqueueReadBuffer").unwrap();
        assert!(matches!(f.sync, SyncPolicy::SyncIf(_)));
        assert_eq!(f.params.len(), 9);
    }

    #[test]
    fn async_annotations_disappear_without_optimization() {
        let off = opencl_descriptor(LowerOptions {
            enable_async: false,
            ..LowerOptions::default()
        })
        .unwrap();
        for f in &off.functions {
            assert!(
                matches!(f.sync, SyncPolicy::Sync),
                "`{}` must lower sync in the unoptimized spec",
                f.name
            );
        }
        let on = opencl_descriptor(LowerOptions::default()).unwrap();
        let async_count = on
            .functions
            .iter()
            .filter(|f| !matches!(f.sync, SyncPolicy::Sync))
            .count();
        assert!(async_count >= 10, "only {async_count} async functions");
    }

    #[test]
    fn record_categories_cover_migration_surface() {
        use ava_spec::RecordCategory;
        let desc = opencl_descriptor(LowerOptions::default()).unwrap();
        let allocs = desc
            .functions
            .iter()
            .filter(|f| f.record == Some(RecordCategory::Alloc))
            .count();
        let deallocs = desc
            .functions
            .iter()
            .filter(|f| {
                f.params.iter().any(|p| {
                    matches!(
                        p.transfer,
                        ava_spec::Transfer::Handle {
                            deallocates: true,
                            ..
                        }
                    )
                })
            })
            .count();
        let writes = desc
            .functions
            .iter()
            .filter(|f| matches!(f.record, Some(RecordCategory::Writes { .. })))
            .count();
        assert!(allocs >= 6, "{allocs} alloc-recorded functions");
        assert!(
            deallocs >= 6,
            "{deallocs} functions with a `deallocates` parameter"
        );
        assert_eq!(
            writes, 5,
            "clSetKernelArg*, clBuildProgram, clCompileProgram"
        );
    }

    #[test]
    fn resource_annotations_present() {
        let desc = opencl_descriptor(LowerOptions::default()).unwrap();
        let f = desc.by_name("clCreateBuffer").unwrap();
        assert!(f.resources.iter().any(|r| r.resource == "device_mem"));
        let f = desc.by_name("clEnqueueNDRangeKernel").unwrap();
        assert!(f.resources.iter().any(|r| r.resource == "device_time_us"));
    }
}
