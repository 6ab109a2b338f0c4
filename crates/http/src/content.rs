//! MIME types and the in-memory document root the web servers serve
//! from (the SPECweb99-like working set lives in memory, as the paper's
//! ~32 MB set fit in RAM and stressed CPU, not disk).

use flux_net::SharedPayload;
use std::collections::HashMap;

/// Maps a file extension to a MIME content type.
pub fn mime_for(path: &str) -> &'static str {
    match path.rsplit_once('.').map(|(_, ext)| ext) {
        Some("html") | Some("htm") => "text/html",
        Some("txt") => "text/plain",
        Some("css") => "text/css",
        Some("js") => "application/javascript",
        Some("json") => "application/json",
        Some("jpg") | Some("jpeg") => "image/jpeg",
        Some("png") => "image/png",
        Some("gif") => "image/gif",
        Some("ppm") => "image/x-portable-pixmap",
        Some("fxs") => "text/html", // FluxScript renders to HTML
        Some("xml") => "application/xml",
        Some("pdf") => "application/pdf",
        _ => "application/octet-stream",
    }
}

/// An in-memory document tree: path -> file bytes.
///
/// `*.fxs` files are FluxScript templates executed per request; anything
/// else is served verbatim — and by reference: each file is held as a
/// refcounted [`SharedPayload`], so handing one to a
/// [`crate::Response`] costs a reference-count increment, not a copy.
#[derive(Debug, Default, Clone)]
pub struct DocRoot {
    files: HashMap<String, SharedPayload>,
}

impl DocRoot {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a file under `path` (must start with `/`). A `Vec<u8>` is
    /// taken over as it is, not copied.
    pub fn insert(&mut self, path: &str, content: impl Into<Vec<u8>>) -> &mut Self {
        assert!(path.starts_with('/'), "doc paths are absolute: {path}");
        self.files
            .insert(path.to_string(), SharedPayload::detached(content.into()));
        self
    }

    /// Fetches a file; `/` resolves to `/index.html`. The payload
    /// dereferences to the file's bytes; clone it to serve them.
    pub fn get(&self, path: &str) -> Option<&SharedPayload> {
        let path = if path == "/" { "/index.html" } else { path };
        self.files.get(path)
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when no files are loaded.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total bytes across all files (the "working set" size).
    pub fn total_bytes(&self) -> usize {
        self.files.values().map(|v| v.len()).sum()
    }

    /// Iterates `(path, size)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        self.files.iter().map(|(k, v)| (k.as_str(), v.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mime_lookup() {
        assert_eq!(mime_for("/a/b.html"), "text/html");
        assert_eq!(mime_for("/x.jpg"), "image/jpeg");
        assert_eq!(mime_for("/x.fxs"), "text/html");
        assert_eq!(mime_for("/noext"), "application/octet-stream");
    }

    #[test]
    fn docroot_basics() {
        let mut root = DocRoot::new();
        root.insert("/index.html", "<h1>hi</h1>")
            .insert("/a.txt", "aaa");
        assert_eq!(&root.get("/").unwrap()[..], b"<h1>hi</h1>");
        assert_eq!(&root.get("/a.txt").unwrap()[..], b"aaa");
        assert!(root.get("/missing").is_none());
        assert_eq!(root.len(), 2);
        assert_eq!(root.total_bytes(), 14);
    }

    /// `insert` takes the caller's buffer over and `get` hands out that
    /// same buffer: serving a file is a refcount increment.
    #[test]
    fn files_are_held_and_served_by_reference() {
        let file = vec![7u8; 4096];
        let at = file.as_ptr();
        let mut root = DocRoot::new();
        root.insert("/f.bin", file);
        let held = root.get("/f.bin").unwrap();
        assert_eq!(held.as_ptr(), at, "insert did not copy");
        let served = held.clone();
        assert_eq!(served.as_ptr(), at, "serving does not copy");
        assert_eq!(held.ref_count(), 2);
        drop(served);
        assert_eq!(root.get("/f.bin").unwrap().ref_count(), 1);
    }

    #[test]
    #[should_panic(expected = "absolute")]
    fn relative_path_rejected() {
        DocRoot::new().insert("rel.html", "x");
    }
}
