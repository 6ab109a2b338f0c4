//! Bencode encoding and decoding (the BitTorrent metainfo and tracker
//! wire format): integers `i42e`, byte strings `4:spam`, lists
//! `l...e`, and dictionaries `d...e` with lexicographically sorted keys.

use std::collections::BTreeMap;
use std::fmt;

/// A bencoded value. Dictionary keys are byte strings; `BTreeMap` keeps
/// them sorted as the canonical encoding requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bencode {
    Int(i64),
    Bytes(Vec<u8>),
    List(Vec<Bencode>),
    Dict(BTreeMap<Vec<u8>, Bencode>),
}

/// Lists and dictionaries nested deeper than this are rejected: the
/// decoder recurses once per level, and real metainfo and tracker
/// replies nest a handful of levels.
pub const MAX_DEPTH: usize = 64;

/// Decode failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BencodeError {
    pub at: usize,
    pub msg: String,
}

impl fmt::Display for BencodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bencode error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for BencodeError {}

impl Bencode {
    /// Builds a dictionary from pairs.
    pub fn dict(pairs: impl IntoIterator<Item = (&'static str, Bencode)>) -> Bencode {
        Bencode::Dict(
            pairs
                .into_iter()
                .map(|(k, v)| (k.as_bytes().to_vec(), v))
                .collect(),
        )
    }

    /// Builds a byte string from text.
    pub fn str(s: &str) -> Bencode {
        Bencode::Bytes(s.as_bytes().to_vec())
    }

    /// Dictionary lookup by string key.
    pub fn get(&self, key: &str) -> Option<&Bencode> {
        match self {
            Bencode::Dict(d) => d.get(key.as_bytes()),
            _ => None,
        }
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Bencode::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Byte-string accessor.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Bencode::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// UTF-8 string accessor.
    pub fn as_str(&self) -> Option<&str> {
        self.as_bytes().and_then(|b| std::str::from_utf8(b).ok())
    }

    /// List accessor.
    pub fn as_list(&self) -> Option<&[Bencode]> {
        match self {
            Bencode::List(l) => Some(l),
            _ => None,
        }
    }

    /// Serializes to the canonical byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Bencode::Int(n) => {
                out.push(b'i');
                out.extend_from_slice(n.to_string().as_bytes());
                out.push(b'e');
            }
            Bencode::Bytes(b) => {
                out.extend_from_slice(b.len().to_string().as_bytes());
                out.push(b':');
                out.extend_from_slice(b);
            }
            Bencode::List(items) => {
                out.push(b'l');
                for item in items {
                    item.encode_into(out);
                }
                out.push(b'e');
            }
            Bencode::Dict(map) => {
                out.push(b'd');
                for (k, v) in map {
                    out.extend_from_slice(k.len().to_string().as_bytes());
                    out.push(b':');
                    out.extend_from_slice(k);
                    v.encode_into(out);
                }
                out.push(b'e');
            }
        }
    }

    /// Parses one complete value; trailing bytes are an error.
    pub fn decode(data: &[u8]) -> Result<Bencode, BencodeError> {
        let (v, used) = Self::decode_prefix(data)?;
        if used != data.len() {
            return Err(BencodeError {
                at: used,
                msg: format!("{} trailing byte(s)", data.len() - used),
            });
        }
        Ok(v)
    }

    /// Parses one value from the front of `data`, returning it and the
    /// bytes consumed (tracker responses may be embedded in streams).
    pub fn decode_prefix(data: &[u8]) -> Result<(Bencode, usize), BencodeError> {
        let mut pos = 0;
        let v = parse(data, &mut pos, 0)?;
        Ok((v, pos))
    }
}

fn fail<T>(at: usize, msg: impl Into<String>) -> Result<T, BencodeError> {
    Err(BencodeError {
        at,
        msg: msg.into(),
    })
}

fn parse(data: &[u8], pos: &mut usize, depth: usize) -> Result<Bencode, BencodeError> {
    if depth > MAX_DEPTH && matches!(data.get(*pos), Some(b'l' | b'd')) {
        return fail(*pos, format!("nesting deeper than {MAX_DEPTH}"));
    }
    match data.get(*pos) {
        None => fail(*pos, "unexpected end of input"),
        Some(b'i') => {
            *pos += 1;
            let start = *pos;
            while data.get(*pos).is_some_and(|&b| b != b'e') {
                *pos += 1;
            }
            if data.get(*pos) != Some(&b'e') {
                return fail(start, "unterminated integer");
            }
            let text = std::str::from_utf8(&data[start..*pos]).map_err(|_| BencodeError {
                at: start,
                msg: "non-ascii integer".into(),
            })?;
            if text.is_empty()
                || text == "-"
                || (text.starts_with('0') && text.len() > 1)
                || (text.starts_with("-0"))
            {
                return fail(start, format!("invalid integer `{text}`"));
            }
            let n: i64 = text.parse().map_err(|_| BencodeError {
                at: start,
                msg: format!("integer `{text}` out of range"),
            })?;
            *pos += 1;
            Ok(Bencode::Int(n))
        }
        Some(b'l') => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                if data.get(*pos) == Some(&b'e') {
                    *pos += 1;
                    return Ok(Bencode::List(items));
                }
                items.push(parse(data, pos, depth + 1)?);
            }
        }
        Some(b'd') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            let mut last_key: Option<Vec<u8>> = None;
            loop {
                if data.get(*pos) == Some(&b'e') {
                    *pos += 1;
                    return Ok(Bencode::Dict(map));
                }
                let key_at = *pos;
                let key = match parse(data, pos, depth + 1)? {
                    Bencode::Bytes(b) => b,
                    _ => return fail(key_at, "dictionary key must be a byte string"),
                };
                if let Some(prev) = &last_key {
                    if key <= *prev {
                        return fail(key_at, "dictionary keys out of order");
                    }
                }
                let value = parse(data, pos, depth + 1)?;
                last_key = Some(key.clone());
                map.insert(key, value);
            }
        }
        Some(b) if b.is_ascii_digit() => {
            let start = *pos;
            while data.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
                *pos += 1;
            }
            if data.get(*pos) != Some(&b':') {
                return fail(start, "string length without `:`");
            }
            let len: usize = std::str::from_utf8(&data[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or(BencodeError {
                    at: start,
                    msg: "bad string length".into(),
                })?;
            *pos += 1;
            let end = pos
                .checked_add(len)
                .filter(|&e| e <= data.len())
                .ok_or(BencodeError {
                    at: *pos,
                    msg: format!("string of {len} bytes overruns input"),
                })?;
            let bytes = data[*pos..end].to_vec();
            *pos = end;
            Ok(Bencode::Bytes(bytes))
        }
        Some(&b) => fail(*pos, format!("unexpected byte {b:#x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Bencode) {
        let enc = v.encode();
        assert_eq!(&Bencode::decode(&enc).unwrap(), v);
    }

    #[test]
    fn integers() {
        assert_eq!(Bencode::decode(b"i42e").unwrap(), Bencode::Int(42));
        assert_eq!(Bencode::decode(b"i-7e").unwrap(), Bencode::Int(-7));
        assert_eq!(Bencode::decode(b"i0e").unwrap(), Bencode::Int(0));
        assert_eq!(Bencode::Int(42).encode(), b"i42e");
        round_trip(&Bencode::Int(i64::MAX));
        round_trip(&Bencode::Int(i64::MIN));
    }

    #[test]
    fn invalid_integers_rejected() {
        assert!(Bencode::decode(b"ie").is_err());
        assert!(Bencode::decode(b"i-e").is_err());
        assert!(Bencode::decode(b"i007e").is_err());
        assert!(Bencode::decode(b"i-0e").is_err());
        assert!(Bencode::decode(b"i12").is_err());
    }

    #[test]
    fn strings() {
        assert_eq!(Bencode::decode(b"4:spam").unwrap(), Bencode::str("spam"));
        assert_eq!(Bencode::decode(b"0:").unwrap(), Bencode::str(""));
        assert!(Bencode::decode(b"5:spam").is_err());
        assert!(Bencode::decode(b"4spam").is_err());
        round_trip(&Bencode::Bytes(vec![0, 255, 128]));
    }

    #[test]
    fn lists_and_dicts() {
        let v = Bencode::decode(b"l4:spami42ee").unwrap();
        assert_eq!(
            v,
            Bencode::List(vec![Bencode::str("spam"), Bencode::Int(42)])
        );
        let d = Bencode::decode(b"d3:bar4:spam3:fooi42ee").unwrap();
        assert_eq!(d.get("bar").unwrap().as_str(), Some("spam"));
        assert_eq!(d.get("foo").unwrap().as_int(), Some(42));
        round_trip(&d);
    }

    #[test]
    fn dict_keys_must_be_sorted() {
        assert!(Bencode::decode(b"d3:foo0:3:bar0:e").is_err());
        assert!(Bencode::decode(b"d3:foo0:3:foo0:e").is_err(), "duplicates");
    }

    #[test]
    fn dict_encode_sorts_keys() {
        let d = Bencode::dict([("zebra", Bencode::Int(1)), ("apple", Bencode::Int(2))]);
        assert_eq!(d.encode(), b"d5:applei2e5:zebrai1ee");
    }

    #[test]
    fn nested_structures() {
        let v = Bencode::dict([
            (
                "files",
                Bencode::List(vec![Bencode::dict([
                    ("length", Bencode::Int(1024)),
                    ("path", Bencode::List(vec![Bencode::str("a.txt")])),
                ])]),
            ),
            ("name", Bencode::str("test")),
        ]);
        round_trip(&v);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(Bencode::decode(b"i1ejunk").is_err());
        let (v, used) = Bencode::decode_prefix(b"i1ejunk").unwrap();
        assert_eq!(v, Bencode::Int(1));
        assert_eq!(used, 3);
    }

    /// A megabyte of `l` is refused at the depth cap instead of
    /// recursing until the stack overflows.
    #[test]
    fn deep_nesting_rejected() {
        let err = Bencode::decode(&vec![b'l'; 1 << 20]).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH + 1);
        assert!(err.msg.contains("nesting"), "{err}");
        let mut deepest = vec![b'l'; MAX_DEPTH + 1];
        deepest.extend(vec![b'e'; MAX_DEPTH + 1]);
        assert!(Bencode::decode(&deepest).is_ok());
        let mut too_deep = vec![b'l'; MAX_DEPTH + 2];
        too_deep.extend(vec![b'e'; MAX_DEPTH + 2]);
        assert!(Bencode::decode(&too_deep).is_err());
    }

    #[test]
    fn unterminated_containers_rejected() {
        assert!(Bencode::decode(b"l4:spam").is_err());
        assert!(Bencode::decode(b"d3:foo").is_err());
    }
}
