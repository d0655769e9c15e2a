//! The record-file format shared by every line-oriented artifact λ²
//! writes: search traces, the run corpus, the serve access log, and
//! `--stats-json` lines. This module is the only code that knows it.
//!
//! * **Envelope** — one JSON object per line, led by `"v"`
//!   ([`SCHEMA_VERSION`]). Loading refuses any other version, and a
//!   missing one, instead of misparsing the line.
//! * **Whole-line append** — `write_line` renders a record in full and
//!   hands it to the OS in one `write_all` plus flush, so a writer that
//!   crashes can corrupt at most its final, in-flight line.
//! * **Torn tail** — the final line of a file that does not end in `\n`
//!   *and is not valid JSON* is exactly that crash signature: [`parse`]
//!   skips it with a warning. Every other failure is an error, including
//!   a version or shape error on an unterminated last line and any
//!   garbage mid-file.
//!
//! High-volume writers (the `--trace` [`JsonlTracer`](super::JsonlTracer))
//! may buffer; they still emit whole lines in this envelope.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use super::json::{self, Json};
use super::SCHEMA_VERSION;

/// Structured failure of a record-file operation. Every variant names the
/// file involved, so batch tooling can say which of many inputs was bad.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Filesystem failure (open, create, read, write).
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The rendered OS error.
        message: String,
    },
    /// A line was not valid JSON or not record-shaped.
    Parse {
        /// The file involved.
        path: PathBuf,
        /// 1-based line number.
        line: u64,
        /// What was wrong.
        message: String,
    },
    /// A line carried a schema version this build does not understand.
    Version {
        /// The file involved.
        path: PathBuf,
        /// 1-based line number.
        line: u64,
        /// The version found (`None` when the field is missing entirely).
        found: Option<i64>,
    },
}

impl RecordError {
    /// An [`RecordError::Io`] for `path`.
    pub(crate) fn io(path: &Path, err: &std::io::Error) -> RecordError {
        RecordError::Io {
            path: path.to_owned(),
            message: err.to_string(),
        }
    }
}

/// Renders a failed [`check_version`] result.
pub(crate) fn version_message(found: Option<i64>) -> String {
    match found {
        Some(v) => format!("unsupported schema version {v} (this build reads v{SCHEMA_VERSION})"),
        None => "no schema version field \"v\"".to_owned(),
    }
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io { path, message } => write!(f, "{}: {message}", path.display()),
            RecordError::Parse {
                path,
                line,
                message,
            } => write!(f, "{}:{line}: {message}", path.display()),
            RecordError::Version { path, line, found } => {
                write!(f, "{}:{line}: {}", path.display(), version_message(*found))
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// The envelope's version check: `Ok` when `record` carries `"v"` equal
/// to [`SCHEMA_VERSION`], otherwise the version found (`None` when the
/// field is missing or not an integer).
pub(crate) fn check_version(record: &Json) -> Result<(), Option<i64>> {
    match record.get("v") {
        Some(v) if v.as_u64() == Some(SCHEMA_VERSION) => Ok(()),
        found => Err(found.and_then(Json::as_i64)),
    }
}

/// Opens `path` for appending, creating it if needed.
///
/// # Errors
///
/// [`RecordError::Io`] when the file cannot be opened.
pub(crate) fn open_append(path: &Path) -> Result<fs::File, RecordError> {
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| RecordError::io(path, &e))
}

/// Writes `record` as one whole line: one `write_all` of the rendered
/// line, then a flush. `path` names `out` in the error.
///
/// # Errors
///
/// [`RecordError::Io`] on any write failure.
pub(crate) fn write_line(
    out: &mut impl Write,
    path: &Path,
    record: &Json,
) -> Result<(), RecordError> {
    let mut line = record.to_string();
    line.push('\n');
    out.write_all(line.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| RecordError::io(path, &e))
}

/// Appends `records` to `path`, one `write_line` each. Appending
/// nothing leaves the file system untouched.
///
/// # Errors
///
/// [`RecordError::Io`] on any open or write failure.
pub fn append(path: &Path, records: impl IntoIterator<Item = Json>) -> Result<(), RecordError> {
    let mut records = records.into_iter().peekable();
    if records.peek().is_none() {
        return Ok(());
    }
    let mut file = open_append(path)?;
    records.try_for_each(|record| write_line(&mut file, path, &record))
}

/// Reads and parses the record file at `path`. See [`parse`].
///
/// # Errors
///
/// [`RecordError::Io`] when the file cannot be read, plus everything
/// [`parse`] reports.
pub(crate) fn load<T>(
    path: &Path,
    record: impl FnMut(Json) -> Result<T, String>,
) -> Result<Vec<T>, RecordError> {
    let text = fs::read_to_string(path).map_err(|e| RecordError::io(path, &e))?;
    parse(&text, path, record)
}

/// Parses record-file text in line order: blank lines are ignored, every
/// other line must be valid JSON that passes the version check, and is
/// then handed to `record`. A torn tail (see the module docs) is skipped
/// with a warning on stderr. `path` names the source in errors.
///
/// # Errors
///
/// [`RecordError::Parse`] for malformed lines and `record` failures,
/// [`RecordError::Version`] for missing or unsupported versions.
pub fn parse<T>(
    text: &str,
    path: &Path,
    mut record: impl FnMut(Json) -> Result<T, String>,
) -> Result<Vec<T>, RecordError> {
    let terminated = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    let mut records = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let line_no = i as u64 + 1;
        if line.trim().is_empty() {
            continue;
        }
        let parse_error = |message| RecordError::Parse {
            path: path.to_owned(),
            line: line_no,
            message,
        };
        let json = match json::parse(line) {
            Ok(json) => json,
            Err(message) if !terminated && i + 1 == lines.len() => {
                eprintln!(
                    "warning: {}: skipping unterminated trailing line {line_no}: {message}",
                    path.display()
                );
                break;
            }
            Err(message) => return Err(parse_error(message)),
        };
        check_version(&json).map_err(|found| RecordError::Version {
            path: path.to_owned(),
            line: line_no,
            found,
        })?;
        records.push(record(json).map_err(parse_error)?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lambda2-jsonl-{tag}-{}.jsonl", std::process::id()))
    }

    /// A minimal record parser: the line's `"id"`.
    fn id(j: Json) -> Result<u64, String> {
        j.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "record missing field \"id\"".to_owned())
    }

    fn parse_ids(text: &str) -> Result<Vec<u64>, RecordError> {
        parse(text, Path::new("t.jsonl"), id)
    }

    #[test]
    fn append_load_round_trip_in_whole_lines() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        // Appending nothing creates nothing.
        append(&path, []).unwrap();
        assert!(!path.exists());
        let line = |id: u64| Json::obj([("v", SCHEMA_VERSION.into()), ("id", id.into())]);
        append(&path, [line(1), line(2)]).unwrap();
        append(&path, [line(3)]).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "{\"v\":1,\"id\":1}\n{\"v\":1,\"id\":2}\n{\"v\":1,\"id\":3}\n"
        );
        assert_eq!(load(&path, id).unwrap(), vec![1, 2, 3]);
        let _ = fs::remove_file(&path);
        assert!(matches!(load(&path, id), Err(RecordError::Io { .. })));
    }

    #[test]
    fn load_rejects_garbage_and_wrong_versions() {
        assert!(matches!(
            parse_ids("not json\n"),
            Err(RecordError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_ids("{\"v\":99,\"id\":1}\n"),
            Err(RecordError::Version {
                line: 1,
                found: Some(99),
                ..
            })
        ));
        assert!(matches!(
            parse_ids("{\"id\":1}\n"),
            Err(RecordError::Version {
                line: 1,
                found: None,
                ..
            })
        ));
        // A record-shape failure is a parse error on its line.
        assert!(matches!(
            parse_ids("{\"v\":1,\"id\":1}\n\n{\"v\":1}\n"),
            Err(RecordError::Parse { line: 3, .. })
        ));
        let err = parse_ids("{\"v\":2,\"id\":1}\n").unwrap_err().to_string();
        assert_eq!(
            err,
            "t.jsonl:1: unsupported schema version 2 (this build reads v1)"
        );
    }

    #[test]
    fn loader_skips_a_torn_tail_only() {
        let line = "{\"v\":1,\"id\":7}";
        // A crash mid-append: complete line, then a truncated one with no
        // terminating newline — loaded minus the tail.
        assert_eq!(parse_ids(&format!("{line}\n{{\"v\":1,\"id\"")), Ok(vec![7]));
        // The same garbage mid-file (newline-terminated) is corruption.
        assert!(matches!(
            parse_ids(&format!("{{\"v\":1,\"id\"\n{line}\n")),
            Err(RecordError::Parse { line: 1, .. })
        ));
        // An unterminated last line that *is* valid JSON is a record: it
        // loads when well-formed, and its version or shape errors stand.
        assert_eq!(parse_ids(&format!("{line}\n{line}")), Ok(vec![7, 7]));
        assert!(matches!(
            parse_ids(&format!("{line}\n{{\"v\":2,\"id\":1}}")),
            Err(RecordError::Version {
                line: 2,
                found: Some(2),
                ..
            })
        ));
        assert!(matches!(
            parse_ids(&format!("{line}\n{{\"v\":1}}")),
            Err(RecordError::Parse { line: 2, .. })
        ));
    }
}
