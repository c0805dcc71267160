//! Traced mode's recording: spans kept in memory and written at exit, and
//! a raw-framed wire connection whose codec and socket steps are spans.

use mnc_wire::{
    decode_request, decode_response, encode_request, encode_response, frame, WireBody, WirePayload,
    WireRequest, PROTOCOL_VERSION,
};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the tracer's start.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<u32>,
    request: Option<u64>,
}

/// Spans of one traced run, in begin order.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, request: Option<u64>) -> u32 {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span.
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let value = f();
        self.end(id);
        value
    }

    /// Lengths of the spans in `range` named `name`, in microseconds.
    pub fn micros(&self, range: std::ops::RangeFrom<usize>, name: &str) -> Vec<f64> {
        self.spans[range]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// Spans recorded so far (an index for [`Tracer::total_micros`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total length of the spans in `range` named any of `names`, in
    /// microseconds.
    pub fn total_micros(&self, range: std::ops::RangeFrom<usize>, names: &[&str]) -> f64 {
        self.spans[range]
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
            )?;
        }
        out.flush()
    }
}

/// Why one wire call failed.
#[derive(Debug)]
pub enum CallError {
    /// The server answered with a structured error.
    Server(String),
    /// The connection broke or the answer could not be read.
    Transport(String),
}

/// A wire connection driven with the `mnc_wire` codec and framing
/// directly, so each step of a round trip can be a span.
pub struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Encoded size of every answer, in bytes.
    pub reply_bytes: Vec<usize>,
}

impl RawConn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<RawConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RawConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
            reply_bytes: Vec::new(),
        })
    }

    /// One call. With a tracer, the round trip and its codec and socket
    /// steps are spans, and the answer is re-encoded and its request
    /// re-decoded once more to time the server's side of the codec.
    pub fn call(
        &mut self,
        body: WireBody,
        tracer: Option<&mut Tracer>,
    ) -> Result<WirePayload, CallError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = WireRequest::new(id, body);
        let traced = tracer.is_some();
        let mut scratch = Tracer::new();
        let tracer = tracer.unwrap_or(&mut scratch);
        let transport = |e: String| CallError::Transport(e);

        let round_trip = tracer.begin("server.roundtrip", None, Some(id));
        let text = tracer
            .span("client.encode_request", Some(round_trip), Some(id), || {
                encode_request(&request)
            })
            .map_err(|e| transport(e.to_string()))?;
        tracer
            .span("client.write_frame", Some(round_trip), Some(id), || {
                frame::write_frame(&mut self.writer, &text)
            })
            .map_err(|e| transport(e.to_string()))?;
        let reply = tracer
            .span("client.read_frame", Some(round_trip), Some(id), || {
                frame::read_frame(&mut self.reader)
            })
            .map_err(|e| transport(e.to_string()))?
            .ok_or_else(|| transport("connection closed".to_string()))?;
        let response = tracer
            .span("client.decode_response", Some(round_trip), Some(id), || {
                decode_response(&reply)
            })
            .map_err(|e| transport(e.to_string()))?;
        tracer.end(round_trip);

        if traced {
            self.reply_bytes.push(reply.len());
            tracer.span("wire.decode_request", None, Some(id), || {
                decode_request(&text).is_ok()
            });
            tracer.span("wire.encode_response", None, Some(id), || {
                encode_response(&response).is_ok()
            });
        }

        if response.version != PROTOCOL_VERSION || response.id != id {
            return Err(transport(format!(
                "answer version {} id {} to request {id}",
                response.version, response.id
            )));
        }
        response
            .outcome
            .into_result()
            .map_err(|e| CallError::Server(format!("{:?}: {}", e.code, e.message)))
    }
}
