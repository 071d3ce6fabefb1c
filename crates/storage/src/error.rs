//! Storage-engine errors. Corruption is typed: checksum failures are
//! distinguishable from framing/decoding problems so callers (and the
//! fault-injection tests) can tell "the disk lied" from "the format
//! moved".

use std::fmt;
use std::path::PathBuf;

/// Why the storage engine refused a file or an operation.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// Which file kind was expected (`"snapshot"` or `"wal"`).
        kind: &'static str,
        /// The bytes actually found.
        found: Vec<u8>,
    },
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Highest version this build reads.
        supported: u32,
    },
    /// A section's payload does not match its recorded CRC32.
    ChecksumMismatch {
        /// Section tag (e.g. `"TMPL"`).
        section: String,
        /// CRC stored in the file.
        expected: u32,
        /// CRC computed over the payload read back.
        actual: u32,
    },
    /// Structurally invalid content (truncated payload, unknown record
    /// kind, unparseable embedded SPARQL, …).
    Corrupt {
        /// What was being decoded and what went wrong.
        context: String,
    },
    /// The data directory has no `SHARDS` topology file: it is absent,
    /// empty, or was written in some other layout.
    MissingTopology {
        /// The topology file that was expected.
        path: PathBuf,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::BadMagic { kind, found } => {
                write!(f, "not a uqsj {kind} file (magic {found:02x?})")
            }
            StorageError::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} is newer than supported {supported}")
            }
            StorageError::ChecksumMismatch { section, expected, actual } => write!(
                f,
                "section {section} checksum mismatch: recorded {expected:#010x}, computed {actual:#010x}"
            ),
            StorageError::Corrupt { context } => write!(f, "corrupt storage: {context}"),
            StorageError::MissingTopology { path } => write!(
                f,
                "{} not found: not a uqsj data directory; re-run `uqsj-cli snapshot` \
                 to write one",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl StorageError {
    /// Shorthand for a [`StorageError::Corrupt`].
    pub fn corrupt(context: impl Into<String>) -> Self {
        StorageError::Corrupt { context: context.into() }
    }
}
