//! An in-memory file system behind `dfv-core`'s `IoShim`.
//!
//! The campaign cache and journal do all their file work through the
//! shim, so with this one they still render, checksum, lock and parse
//! every record, but no byte reaches a disk. Fsync latency on a shared
//! disk is outside what the benchmark can hold steady: with real files
//! the median re-verify time moved by a third between runs.

use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dfv::core::{IoHandle, IoShim};

#[derive(Debug, Default)]
pub struct MemFs {
    files: Mutex<HashMap<PathBuf, Vec<u8>>>,
}

impl MemFs {
    pub fn handle() -> IoHandle {
        IoHandle::new(Arc::new(MemFs::default()))
    }

    fn files(&self) -> std::sync::MutexGuard<'_, HashMap<PathBuf, Vec<u8>>> {
        self.files.lock().expect("memfs lock")
    }
}

fn missing(path: &Path) -> io::Error {
    io::Error::new(ErrorKind::NotFound, path.display().to_string())
}

impl IoShim for MemFs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let files = self.files();
        let data = files.get(path).ok_or_else(|| missing(path))?;
        Ok(String::from_utf8_lossy(data).into_owned())
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.files().insert(path.to_path_buf(), data.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.files()
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let data = files.remove(from).ok_or_else(|| missing(from))?;
        files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn create_new(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut files = self.files();
        if files.contains_key(path) {
            return Err(io::Error::new(
                ErrorKind::AlreadyExists,
                path.display().to_string(),
            ));
        }
        files.insert(path.to_path_buf(), data.to_vec());
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.files()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| missing(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_behave_like_the_real_shim() {
        let fs = MemFs::default();
        let (a, b) = (Path::new("a"), Path::new("b"));
        assert_eq!(
            fs.read_to_string(a).unwrap_err().kind(),
            ErrorKind::NotFound
        );
        fs.write(a, b"x").unwrap();
        fs.append(a, b"y").unwrap();
        fs.rename(a, b).unwrap();
        assert_eq!(fs.read_to_string(b).unwrap(), "xy");
        assert!(fs.read_to_string(a).is_err());
        fs.create_new(a, b"").unwrap();
        assert_eq!(
            fs.create_new(a, b"").unwrap_err().kind(),
            ErrorKind::AlreadyExists
        );
        fs.remove(a).unwrap();
        assert!(fs.remove(a).is_err());
    }
}
