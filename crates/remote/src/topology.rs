//! The `TOPOLOGY` manifest: which address serves which shard.
//!
//! A distributed deployment is described by one JSON file the coordinator
//! reads at startup.  It pins the same parameters the on-disk `MANIFEST`
//! pins for a local sharded directory — shard count, signature width —
//! plus the hash-family identity and one network node per shard:
//!
//! ```json
//! {
//!   "version": 1,
//!   "shards": 2,
//!   "width": 1600,
//!   "hasher": "md5/4",
//!   "nodes": [
//!     { "id": 0, "primary": "127.0.0.1:7001", "follower": "127.0.0.1:7101" },
//!     { "id": 1, "primary": "127.0.0.1:7002" }
//!   ]
//! }
//! ```
//!
//! The pinned `width`/`hasher` pair is what makes the scatter-gather
//! sums trustworthy: per-shard AND+popcount estimates only sum to the
//! unsharded answer when every shard hashes items to the same slices.
//! At connect time the coordinator checks each shard server's actual
//! width and hasher (reported in the reply to the pinning `COUNT_MANY_AT`
//! frame) against the topology and refuses to serve on any disagreement,
//! naming both values.
//!
//! The parser is a strict, dependency-free JSON subset: objects, arrays,
//! strings (with the standard escapes), and non-negative integers —
//! exactly what a topology needs.  Unknown object keys are rejected, not
//! ignored, so a typo'd `"folower"` fails loudly at startup instead of
//! silently disabling failover.

use std::fmt;
use std::io;
use std::path::Path;

/// Topology format version this build reads and writes.
pub const TOPOLOGY_VERSION: u32 = 1;

/// One shard's network placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Shard ordinal this node serves (`tid mod shards == id`).
    pub id: u32,
    /// The primary server's TCP `host:port` address.
    pub primary: String,
    /// Optional replication follower the coordinator fails over to when
    /// the primary goes silent.
    pub follower: Option<String>,
}

/// A distributed deployment's shard map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Topology format version.
    pub version: u32,
    /// Number of shards (the TID routing modulus).
    pub shards: usize,
    /// Signature width every shard must serve.
    pub width: usize,
    /// Identity of the item-hash family every shard must use
    /// (e.g. `md5/4`; see `bbs_hash::ItemHasher::id`).
    pub hasher: String,
    /// One node per shard, in shard order.
    pub nodes: Vec<NodeSpec>,
}

impl Topology {
    /// Reads and validates a topology file.
    pub fn read(path: &Path) -> io::Result<Topology> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        Self::parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Parses and validates a topology document.
    pub fn parse(text: &str) -> Result<Topology, String> {
        let value = Json::parse(text)?;
        let obj = value.object("topology")?;
        let mut version = None;
        let mut shards = None;
        let mut width = None;
        let mut hasher = None;
        let mut nodes = None;
        for (key, val) in obj {
            match key.as_str() {
                "version" => version = Some(val.number("version")? as u32),
                "shards" => shards = Some(val.number("shards")? as usize),
                "width" => width = Some(val.number("width")? as usize),
                "hasher" => hasher = Some(val.string("hasher")?),
                "nodes" => {
                    let mut parsed = Vec::new();
                    for (i, node) in val.array("nodes")?.iter().enumerate() {
                        parsed.push(Self::parse_node(node, i)?);
                    }
                    nodes = Some(parsed);
                }
                other => return Err(format!("unknown topology key {other:?}")),
            }
        }
        let topology = Topology {
            version: version.ok_or("missing \"version\"")?,
            shards: shards.ok_or("missing \"shards\"")?,
            width: width.ok_or("missing \"width\"")?,
            hasher: hasher.ok_or("missing \"hasher\"")?,
            nodes: nodes.ok_or("missing \"nodes\"")?,
        };
        topology.validate()?;
        Ok(topology)
    }

    fn parse_node(value: &Json, index: usize) -> Result<NodeSpec, String> {
        let obj = value.object(&format!("nodes[{index}]"))?;
        let mut id = None;
        let mut primary = None;
        let mut follower = None;
        for (key, val) in obj {
            match key.as_str() {
                "id" => id = Some(val.number("id")? as u32),
                "primary" => primary = Some(val.string("primary")?),
                "follower" => follower = Some(val.string("follower")?),
                other => return Err(format!("nodes[{index}]: unknown key {other:?}")),
            }
        }
        Ok(NodeSpec {
            id: id.ok_or_else(|| format!("nodes[{index}]: missing \"id\""))?,
            primary: primary.ok_or_else(|| format!("nodes[{index}]: missing \"primary\""))?,
            follower,
        })
    }

    fn validate(&self) -> Result<(), String> {
        if self.version != TOPOLOGY_VERSION {
            return Err(format!(
                "unsupported topology version {} (this build reads version {TOPOLOGY_VERSION})",
                self.version
            ));
        }
        if self.shards == 0 {
            return Err("a topology needs at least 1 shard".into());
        }
        if self.shards > bbs_storage::MAX_SHARDS {
            return Err(format!(
                "{} shards exceeds the routing width ({} shards max)",
                self.shards,
                bbs_storage::MAX_SHARDS
            ));
        }
        if self.width == 0 {
            return Err("signature width must be nonzero".into());
        }
        if self.hasher.is_empty() {
            return Err("hasher identity must be nonempty".into());
        }
        if self.nodes.len() != self.shards {
            return Err(format!(
                "topology names {} node(s) for {} shard(s); every shard needs exactly one node",
                self.nodes.len(),
                self.shards
            ));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id as usize != i {
                return Err(format!(
                    "nodes[{i}] has id {} — nodes must be listed in shard order 0..{}",
                    node.id,
                    self.shards - 1
                ));
            }
            if node.primary.is_empty() {
                return Err(format!("nodes[{i}]: primary address must be nonempty"));
            }
            if node.follower.as_deref() == Some("") {
                return Err(format!("nodes[{i}]: follower address must be nonempty"));
            }
            if node.follower.as_deref() == Some(node.primary.as_str()) {
                return Err(format!(
                    "nodes[{i}]: follower must differ from the primary ({})",
                    node.primary
                ));
            }
        }
        Ok(())
    }

    /// Renders the topology back to its JSON document form.
    pub fn to_json(&self) -> String {
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                let follower = match &n.follower {
                    Some(addr) => format!(", \"follower\": {}", json_string(addr)),
                    None => String::new(),
                };
                format!(
                    "    {{ \"id\": {}, \"primary\": {}{follower} }}",
                    n.id,
                    json_string(&n.primary)
                )
            })
            .collect();
        format!(
            "{{\n  \"version\": {},\n  \"shards\": {},\n  \"width\": {},\n  \"hasher\": {},\n  \"nodes\": [\n{}\n  ]\n}}\n",
            self.version,
            self.shards,
            self.width,
            json_string(&self.hasher),
            nodes.join(",\n")
        )
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology v{}: {} shard(s), width {}, hasher {}",
            self.version, self.shards, self.width, self.hasher
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The JSON subset a topology file may use.
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(u64),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    fn object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(fields) => Ok(fields),
            _ => Err(format!("{what} must be a JSON object")),
        }
    }

    fn array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            _ => Err(format!("{what} must be a JSON array")),
        }
    }

    fn string(&self, what: &str) -> Result<String, String> {
        match self {
            Json::String(s) => Ok(s.clone()),
            _ => Err(format!("{what} must be a JSON string")),
        }
    }

    fn number(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Number(n) => Ok(*n),
            _ => Err(format!("{what} must be a non-negative integer")),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {}",
            char::from(byte),
            *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(&other) => Err(format!(
            "unexpected {:?} at byte {} (a topology holds only objects, arrays, \
             strings and non-negative integers)",
            char::from(other),
            *pos
        )),
        None => Err("unexpected end of document".into()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected a string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    _ => return Err(format!("unsupported escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    let digits = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ascii");
    digits
        .parse::<u64>()
        .map(Json::Number)
        .map_err(|_| format!("number {digits:?} does not fit in 64 bits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_shard_doc() -> String {
        r#"{
            "version": 1,
            "shards": 2,
            "width": 1600,
            "hasher": "md5/4",
            "nodes": [
                { "id": 0, "primary": "127.0.0.1:7001", "follower": "127.0.0.1:7101" },
                { "id": 1, "primary": "127.0.0.1:7002" }
            ]
        }"#
        .to_string()
    }

    #[test]
    fn parses_the_quick_start_topology() {
        let t = Topology::parse(&two_shard_doc()).expect("parse");
        assert_eq!(t.version, TOPOLOGY_VERSION);
        assert_eq!(t.shards, 2);
        assert_eq!(t.width, 1600);
        assert_eq!(t.hasher, "md5/4");
        assert_eq!(t.nodes[0].follower.as_deref(), Some("127.0.0.1:7101"));
        assert_eq!(t.nodes[1].follower, None);
    }

    #[test]
    fn round_trips_through_to_json() {
        let t = Topology::parse(&two_shard_doc()).expect("parse");
        let again = Topology::parse(&t.to_json()).expect("reparse rendered form");
        assert_eq!(t, again);
    }

    #[test]
    fn rejects_structural_mistakes() {
        // (document mutation, expected message fragment)
        type Mutation = Box<dyn Fn(&str) -> String>;
        let cases: Vec<(Mutation, &str)> = vec![
            (
                Box::new(|d: &str| d.replace("\"version\": 1", "\"version\": 9")),
                "unsupported topology version 9",
            ),
            (
                Box::new(|d: &str| d.replace("\"shards\": 2", "\"shards\": 3")),
                "names 2 node(s) for 3 shard(s)",
            ),
            (
                Box::new(|d: &str| d.replace("\"id\": 1", "\"id\": 5")),
                "must be listed in shard order",
            ),
            (
                Box::new(|d: &str| d.replace("\"follower\"", "\"folower\"")),
                "unknown key \"folower\"",
            ),
            (
                Box::new(|d: &str| d.replace("\"width\": 1600", "\"width\": 0")),
                "width must be nonzero",
            ),
            (
                Box::new(|d: &str| {
                    d.replace("\"follower\": \"127.0.0.1:7101\"", "\"follower\": \"127.0.0.1:7001\"")
                }),
                "follower must differ from the primary",
            ),
            (
                Box::new(|d: &str| d.replace("\"hasher\": \"md5/4\",", "")),
                "missing \"hasher\"",
            ),
        ];
        let doc = two_shard_doc();
        for (mutate, fragment) in cases {
            let mutated = mutate(&doc);
            assert_ne!(mutated, doc, "mutation must change the document");
            let err = Topology::parse(&mutated).expect_err(fragment);
            assert!(err.contains(fragment), "wanted {fragment:?} in {err:?}");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        for doc in [
            "",
            "{",
            "[1, 2]",
            "{\"version\": 1,}",
            "{\"version\": -1}",
            "{\"version\": 1 \"shards\": 2}",
            "{\"version\": 1} trailing",
        ] {
            assert!(Topology::parse(doc).is_err(), "must reject {doc:?}");
        }
    }

    #[test]
    fn read_reports_the_file_path() {
        let err =
            Topology::read(Path::new("/nonexistent/topology.json")).expect_err("missing file");
        assert!(err.to_string().contains("/nonexistent/topology.json"));
    }
}
