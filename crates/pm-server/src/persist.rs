//! Durable session checkpoints on disk.
//!
//! A persist directory holds one `session-<id>.json` file per autosaved
//! session, each a [`SessionCheckpoint`] serialized as JSON. Writes are
//! atomic — the checkpoint is written to a temporary file in the same
//! directory, synced, and renamed over the target — so a crash at any
//! instant leaves either the previous complete checkpoint or the new one,
//! never a torn file. Files that are torn anyway (hand-edited, truncated by
//! a full disk, or plain garbage) surface as typed [`PersistError`]s from
//! the startup [`scan`](PersistDir::scan); the caller logs and skips them
//! and the server keeps serving.

use crate::protocol::SessionCheckpoint;
use pm_core::session::SessionId;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Why a checkpoint file could not be read or written.
#[derive(Debug)]
pub enum PersistError {
    /// The filesystem refused (permissions, missing directory, full disk).
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file exists but does not parse as a [`SessionCheckpoint`] —
    /// torn, truncated, or never a checkpoint at all.
    Malformed {
        /// The rejected file.
        path: PathBuf,
        /// What the parser objected to.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "checkpoint file {}: {source}", path.display())
            }
            PersistError::Malformed { path, detail } => {
                write!(f, "malformed checkpoint file {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// One scanned checkpoint file: its path plus the parse outcome.
pub type ScanEntry = (PathBuf, Result<SessionCheckpoint, PersistError>);

/// A directory of durable session checkpoints.
#[derive(Debug)]
pub struct PersistDir {
    dir: PathBuf,
}

impl PersistDir {
    /// Opens (creating if needed) a persist directory.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<PersistDir, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| PersistError::Io {
            path: dir.clone(),
            source,
        })?;
        Ok(PersistDir { dir })
    }

    /// The directory being persisted to.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn file(&self, id: SessionId) -> PathBuf {
        self.dir.join(format!("session-{id}.json"))
    }

    /// Atomically writes `checkpoint` as `session-<id>.json`: temp file in
    /// the same directory, sync, rename. A crash mid-write never tears the
    /// previous checkpoint. Returns the file's size in bytes (telemetry
    /// feeds it to the checkpoint-size histogram).
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`PersistError::Io`].
    pub fn save(&self, id: SessionId, checkpoint: &SessionCheckpoint) -> Result<u64, PersistError> {
        let target = self.file(id);
        let temp = self.dir.join(format!(".session-{id}.json.tmp"));
        let io_err = |path: &Path| {
            let path = path.to_path_buf();
            move |source| PersistError::Io { path, source }
        };
        let json = serde_json::to_string(checkpoint).expect("checkpoints serialize");
        let mut file = fs::File::create(&temp).map_err(io_err(&temp))?;
        file.write_all(json.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.sync_all())
            .map_err(io_err(&temp))?;
        drop(file);
        fs::rename(&temp, &target).map_err(io_err(&target))?;
        Ok(json.len() as u64 + 1)
    }

    /// Removes the session's checkpoint file, if any (cancelled and evicted
    /// sessions must not resurrect on restart).
    pub fn delete(&self, id: SessionId) {
        let _ = fs::remove_file(self.file(id));
    }

    /// Scans the directory for `session-<id>.json` files in ascending id
    /// order. Each entry is the file path plus either its parsed checkpoint
    /// or the typed error explaining why it was rejected — corrupt files
    /// are reported, never fatal.
    ///
    /// # Errors
    ///
    /// Fails only if the directory itself cannot be listed.
    pub fn scan(&self) -> Result<Vec<ScanEntry>, PersistError> {
        let entries = fs::read_dir(&self.dir).map_err(|source| PersistError::Io {
            path: self.dir.clone(),
            source,
        })?;
        let mut found: Vec<(SessionId, PathBuf)> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|source| PersistError::Io {
                path: self.dir.clone(),
                source,
            })?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name
                .strip_prefix("session-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|id| id.parse::<SessionId>().ok())
            else {
                continue;
            };
            found.push((id, entry.path()));
        }
        found.sort_unstable_by_key(|(id, _)| *id);
        Ok(found
            .into_iter()
            .map(|(_, path)| {
                let parsed = PersistDir::read(&path);
                (path, parsed)
            })
            .collect())
    }

    fn read(path: &Path) -> Result<SessionCheckpoint, PersistError> {
        let text = fs::read_to_string(path).map_err(|source| PersistError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        serde_json::from_str(text.trim()).map_err(|e| PersistError::Malformed {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_scenarios::{GeneratorSpec, ScenarioSpec};
    use std::env;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = env::temp_dir().join(format!("pm-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn checkpoint(name: &str) -> SessionCheckpoint {
        SessionCheckpoint {
            spec: ScenarioSpec::new(name, GeneratorSpec::Hexagon { radius: 2 }),
            execution: pm_core::session::ExecutionCheckpoint {
                steps: 3,
                rounds: 2,
                algorithm: "dle+collect".to_string(),
                phase: None,
                rounds_in_phase: 0,
                total_rounds: 2,
                decided: 0,
                undecided: 7,
                finished: false,
            },
        }
    }

    #[test]
    fn save_scan_round_trips_in_id_order() {
        let persist = PersistDir::open(temp_dir("roundtrip")).unwrap();
        persist.save(10, &checkpoint("b")).unwrap();
        persist.save(2, &checkpoint("a")).unwrap();
        let scanned = persist.scan().unwrap();
        let names: Vec<String> = scanned
            .iter()
            .map(|(_, parsed)| parsed.as_ref().unwrap().spec.name.clone())
            .collect();
        assert_eq!(
            names,
            ["a", "b"],
            "ascending id order, ids sorted numerically"
        );
        persist.delete(2);
        assert_eq!(persist.scan().unwrap().len(), 1);
        fs::remove_dir_all(persist.path()).unwrap();
    }

    #[test]
    fn torn_and_garbage_files_surface_as_typed_errors() {
        let persist = PersistDir::open(temp_dir("torn")).unwrap();
        persist.save(1, &checkpoint("ok")).unwrap();
        let full = fs::read_to_string(persist.path().join("session-1.json")).unwrap();
        fs::write(
            persist.path().join("session-2.json"),
            &full[..full.len() / 2],
        )
        .unwrap();
        fs::write(persist.path().join("session-3.json"), b"not json at all").unwrap();
        fs::write(persist.path().join("unrelated.txt"), b"ignored").unwrap();
        let scanned = persist.scan().unwrap();
        assert_eq!(
            scanned.len(),
            3,
            "unrelated files are not checkpoint entries"
        );
        assert!(scanned[0].1.is_ok());
        for (path, parsed) in &scanned[1..] {
            match parsed {
                Err(PersistError::Malformed { detail, .. }) => {
                    assert!(!detail.is_empty(), "{}", path.display());
                }
                other => panic!("expected Malformed for {}, got {other:?}", path.display()),
            }
        }
        fs::remove_dir_all(persist.path()).unwrap();
    }
}
