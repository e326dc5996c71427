//! Routing the workload suite's block path through the service.
//!
//! [`ServedBlockDev`] owns a whole service plus one session and implements
//! `dlt_workloads::block::BlockDev`, so every Figure-5 workload can run
//! against the multi-tenant scheduler + coalescer instead of an
//! exclusively-owned replayer (`dlt_workloads::block::DriverletDev`).

use std::collections::HashMap;

use dlt_workloads::block::BlockDev;

use crate::service::{DriverletService, ServeConfig};
use crate::{Device, Payload, Request, ServeError, SessionId};

/// A block device served through one session of a [`DriverletService`].
pub struct ServedBlockDev {
    service: DriverletService,
    session: SessionId,
    device: Device,
}

impl ServedBlockDev {
    /// Stand up a single-device service and open one session on it.
    pub fn new(device: Device, config: ServeConfig) -> Result<Self, ServeError> {
        assert!(device != Device::Vchiq, "ServedBlockDev serves block devices");
        let mut service = DriverletService::new(&[device], config)?;
        let session = service.open_session()?;
        Ok(ServedBlockDev { service, session, device })
    }

    /// The underlying service (stats, more sessions).
    pub fn service_mut(&mut self) -> &mut DriverletService {
        &mut self.service
    }

    fn roundtrip(&mut self, req: Request) -> Result<Payload, String> {
        self.service.roundtrip(self.session, req).map_err(|e| e.to_string())
    }
}

impl BlockDev for ServedBlockDev {
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String> {
        if buf.len() < blkcnt as usize * crate::BLOCK {
            return Err("buffer smaller than the requested blocks".into());
        }
        match self.roundtrip(Request::Read { device: self.device, blkid, blkcnt })? {
            Payload::Read(bytes) => {
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(())
            }
            other => Err(format!("unexpected payload {other:?}")),
        }
    }

    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), String> {
        self.roundtrip(Request::Write { device: self.device, blkid, data: data.to_vec() })
            .map(|_| ())
    }

    fn flush(&mut self) -> Result<(), String> {
        // Served IO is synchronous at completion time: nothing to flush.
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        self.service.now_ns()
    }

    fn invocation_breakdown(&self) -> HashMap<u32, u64> {
        HashMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_workloads::suite::{run_benchmark_on, SqliteBenchmark};
    use dlt_workloads::{StorageKind, StoragePath};

    #[test]
    fn the_sqlite_suite_runs_through_the_service() {
        let dev = ServedBlockDev::new(Device::Mmc, ServeConfig::quick()).expect("served dev");
        let r = run_benchmark_on(
            dev,
            SqliteBenchmark::Select3,
            StorageKind::Mmc,
            StoragePath::Driverlet,
            10,
        )
        .expect("suite over the service");
        assert!(r.iops > 0.0);
        assert!(r.page_io.0 > 0);
    }
}
