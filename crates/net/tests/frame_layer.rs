//! The frame layer under short reads and pipelining.
//!
//! A connection reads through one buffered reader from byte zero and a
//! frame leaves in one vectored write, so the layer must not care how the
//! transport slices the byte stream: whatever a `read` hands out — one byte
//! at a time, several frames at once, a hello glued to the first request —
//! the frames that come out are exactly the frames that went in, and every
//! truncation stays the typed error `net_conservativity::frame_layer_is_typed`
//! pins for whole reads.

use std::io::{BufReader, Cursor, Read, Write};
use std::net::TcpStream;

use mris_core::registry::online_policy_by_name;
use mris_net::{read_frame, write_frame, Hello, HelloReply, Request, Response, NET_VERSION};
use mris_rng::Rng;
use mris_service::{NullSink, ServiceConfig, SimClock};
use mris_trace::{Arrivals, AzureTrace, AzureTraceConfig};
use mris_types::{CodecError, NetError};

/// A `Read` that hands out between 1 and `max` bytes per call, however
/// large the caller's buffer is.
struct Trickle<R> {
    inner: R,
    max: u64,
    rng: Rng,
}

impl<R: Read> Read for Trickle<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let n = 1 + self.rng.next_u64_below(self.max) as usize;
        let n = n.min(buf.len());
        self.inner.read(&mut buf[..n])
    }
}

fn trickle(bytes: &[u8], max: u64, seed: u64) -> Trickle<Cursor<&[u8]>> {
    Trickle {
        inner: Cursor::new(bytes),
        max,
        rng: Rng::new(seed),
    }
}

/// Back-to-back frames of mixed sizes (0 B, 1 B, 4 KiB, 1 MiB, in an order
/// that puts small frames right behind large ones) and the stream that
/// carries them.
fn mixed_stream() -> (Vec<Vec<u8>>, Vec<u8>) {
    let mut rng = Rng::new(0xF4A3E);
    let payloads: Vec<Vec<u8>> = [0usize, 1, 4096, 1 << 20, 0, 1, 1, 4096, 0]
        .iter()
        .map(|&len| (0..len).map(|_| rng.next_u64_below(256) as u8).collect())
        .collect();
    let mut stream = Vec::new();
    for p in &payloads {
        write_frame(&mut stream, p).expect("write to vec");
    }
    (payloads, stream)
}

fn read_all<R: Read>(r: &mut R) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    loop {
        match read_frame(r) {
            Ok(p) => frames.push(p),
            Err(NetError::Closed) => return frames,
            Err(e) => panic!("frame {} of a clean stream: {e:?}", frames.len()),
        }
    }
}

/// Whatever the read sizes, buffered or not, the frames read are exactly
/// the frames written, and the stream then closes cleanly.
#[test]
fn short_reads_yield_exactly_the_frames_written() {
    let (payloads, stream) = mixed_stream();
    for (k, max) in [1u64, 2, 7, 8, 9, 4096, 1 << 16].into_iter().enumerate() {
        let got = read_all(&mut trickle(&stream, max, k as u64));
        assert!(got == payloads, "unbuffered, at most {max} bytes per read");
        // The server's and the client's arrangement: a buffered reader
        // that may hold the tail of one frame and the head of the next.
        let got = read_all(&mut BufReader::new(trickle(&stream, max, k as u64)));
        assert!(got == payloads, "buffered, at most {max} bytes per read");
    }
}

/// A writer that accepts at most `max` bytes per call and only the first
/// buffer of a vectored write — the short-write side of the same coin.
struct Dribble {
    out: Vec<u8>,
    max: usize,
}

impl Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.max);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn short_writes_produce_the_same_bytes() {
    let (payloads, stream) = mixed_stream();
    for max in [1usize, 3, 8, 11, 5000] {
        let mut w = Dribble {
            out: Vec::new(),
            max,
        };
        for p in &payloads {
            write_frame(&mut w, p).expect("dribbling writer never fails");
        }
        assert!(w.out == stream, "at most {max} bytes per write");
    }
}

/// Truncation at every cut, through a buffered reader fed a few bytes at a
/// time: `Closed` before the first header byte, `Io` anywhere inside a
/// frame, and a flipped bit is a `ChecksumMismatch` — as for whole reads.
#[test]
fn truncation_stays_typed_under_short_reads() {
    let first = Request::Stats.encode();
    let second: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
    let mut stream = Vec::new();
    write_frame(&mut stream, &first).expect("write to vec");
    let boundary = stream.len();
    write_frame(&mut stream, &second).expect("write to vec");

    for cut in 0..stream.len() {
        let mut r = BufReader::new(trickle(&stream[..cut], 5, cut as u64));
        if cut >= boundary {
            assert_eq!(read_frame(&mut r).expect("whole first frame"), first);
        }
        let torn = read_frame(&mut r);
        if cut == 0 || cut == boundary {
            assert!(
                matches!(torn, Err(NetError::Closed)),
                "cut {cut} is between frames: {torn:?}"
            );
        } else {
            assert!(
                matches!(torn, Err(NetError::Io { .. })),
                "cut {cut} is inside a frame: {torn:?}"
            );
        }
    }

    for bit in [0usize, 7, 8 * 150, 8 * 299 + 7] {
        let mut bad = stream.clone();
        bad[boundary + 8 + bit / 8] ^= 1 << (bit % 8);
        let mut r = BufReader::new(trickle(&bad, 5, bit as u64));
        assert_eq!(read_frame(&mut r).expect("first frame is intact"), first);
        match read_frame(&mut r) {
            Err(NetError::Codec(CodecError::ChecksumMismatch { .. })) => {}
            other => panic!("payload bit {bit} flipped: {other:?}"),
        }
    }
}

/// A client may send its hello and its first request in one segment: the
/// server's reader owns the connection from byte zero, so the bytes behind
/// the hello are the first frame, not lost in a handshake-only buffer.
#[test]
fn pipelined_hello_and_first_submit_are_both_answered() {
    let shapes = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: 4,
        seed: 5,
        ..Default::default()
    })
    .sample_instance(1, 0);
    let w = Arrivals::Poisson { rate: 4.0 }.rewrite(&shapes, 5).unwrap();
    let server = mris_net::serve_net(
        w.clone(),
        ServiceConfig::new(2),
        SimClock::new(),
        NullSink,
        |inst, m| online_policy_by_name("pq-wsjf", inst, m).expect("known"),
        "127.0.0.1:0",
    )
    .expect("bind");

    let mut segment = Hello {
        version: NET_VERSION,
        expected_fingerprint: 0,
        token: String::new(),
    }
    .encode();
    let submit = Request::Submit {
        job: 0,
        at: Some(w.jobs()[0].release),
    };
    write_frame(&mut segment, &submit.encode()).expect("write to vec");
    write_frame(&mut segment, &Request::Stats.encode()).expect("write to vec");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&segment).expect("one write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let reply = HelloReply::read_from(&mut reader).expect("hello reply");
    assert_eq!(reply.status, mris_net::HandshakeStatus::Ok);
    let submitted = read_frame(&mut reader).expect("first reply");
    assert_eq!(
        Response::decode(&submitted).expect("decodes"),
        Response::Submitted { result: Ok(()) }
    );
    match Response::decode(&read_frame(&mut reader).expect("second reply")).expect("decodes") {
        Response::StatsReply(stats) => assert_eq!((stats.submitted, stats.accepted), (1, 1)),
        other => panic!("expected stats, got {other:?}"),
    }

    write_frame(&mut stream, &Request::Drain.encode()).expect("drain request");
    match Response::decode(&read_frame(&mut reader).expect("drain reply")).expect("decodes") {
        Response::Drained(report) => assert_eq!(report.summary.completed, 1),
        other => panic!("expected the drained report, got {other:?}"),
    }
    server.wait().expect("clean serve");
}
