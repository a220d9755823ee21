//! Error taxonomy of one inference job on a board's NPU.

use std::error::Error;
use std::fmt;

/// Why one inference job on a [`DedicatedNpu`](crate::DedicatedNpu)
/// failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NpuError {
    /// The device faulted while executing the job; it stays unusable until
    /// [`DedicatedNpu::reset`](crate::DedicatedNpu::reset) is called.
    DeviceFault,
    /// The job did not complete before the caller's deadline.
    Timeout,
    /// The model is not loaded (the device is in its faulted state).
    ModelNotLoaded,
}

impl fmt::Display for NpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NpuError::DeviceFault => write!(f, "NPU device fault; reset required"),
            NpuError::Timeout => write!(f, "NPU job timed out"),
            NpuError::ModelNotLoaded => write!(f, "model not loaded on the NPU"),
        }
    }
}

impl Error for NpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_distinct() {
        let all = [
            NpuError::DeviceFault,
            NpuError::Timeout,
            NpuError::ModelNotLoaded,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.to_string(), b.to_string());
            }
        }
    }
}
