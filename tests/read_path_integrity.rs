//! The read path pays its fixed costs once — and gives up no check for it.
//!
//! * **Verify-once replicas.** A stored replica is hashed against the
//!   namenode checksum until it matches once; after that it is served as a
//!   refcount bump. The flag cannot outlive the bytes it vouches for:
//!   corruption, node loss and re-replication all leave unverified
//!   replicas, a failed check is never remembered, and a bad replica is
//!   re-hashed (and counted) on every attempt.
//! * **Verify-once chunk seals.** The CIF scan's sealed read hashes a
//!   chunk replica's seal until it matches once, then remembers it beside
//!   the verified flag; a repeated query hashes no seal. A chunk sealed
//!   wrong before it was written fails every read, and corruption, node
//!   loss and re-replication leave only unsealed replicas.
//! * **Bulk column decode.** `decode_column` equals the element-at-a-time
//!   decoder it replaced (kept here as the oracle) on every column and
//!   encoding, and turns arbitrary, truncated, bit-flipped and crafted
//!   chunks into typed errors without allocating from a count it has not
//!   checked against the payload.
//! * **One table handle per job.** A `CifInputFormat` resolves the table in
//!   `splits()` and serves that snapshot to the job's `open()` calls; the
//!   next `splits()` replaces it, so roll-in and roll-out are seen by the
//!   next query, and everything the cost model prices is what the per-part
//!   open and per-file planning lookups produced. An `RcFileInputFormat`
//!   holds its table the same way: a job reads `.meta` once.
//! * **Reads by resolved file.** The snapshot keeps every column file as
//!   the planning walk resolved it, and `open()` zone-checks and reads
//!   chunks through it: a repeated query looks up one path per job
//!   (`_meta`), a resolved read equals a cold path-keyed one after every
//!   kind of namespace change, and a file deleted after planning is a typed
//!   error naming its path.

use clyde_columnar::encoding::{decode_column, encode_column, Encoding};
use clyde_columnar::{
    peek_zone_map, roll_out, CifAppender, CifInputFormat, CifReader, CifWriter, RcFileInputFormat,
    RcFileWriter, ZONE_HEADER_MAX,
};
use clyde_common::hash::FxHasher;
use clyde_common::{varint, ClydeError, ColumnData, DatumType, Field, Row, Schema};
use clyde_dfs::{
    BlockPlacementPolicy, ClusterSpec, ColocatingPlacement, DefaultPlacement, Dfs, DfsOptions,
    NodeId,
};
use clyde_mapred::{InputFormat, JobConf, JobProfile, SplitSpec, TaskCost, TaskIo, TaskProfile};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::queries::all_queries;
use clyde_ssb::{query_by_id, reference_answer};
use clydesdale::planner::zone_preds;
use clydesdale::Clydesdale;
use proptest::prelude::*;
use std::hash::Hasher;
use std::sync::{Arc, Barrier};

// ---------------------------------------------------------------------------
// (a) verify-once soundness
// ---------------------------------------------------------------------------

/// Three nodes, replication 2, one 200-byte single-block file.
fn one_file() -> (Arc<Dfs>, Vec<u8>) {
    let dfs = Dfs::new(
        ClusterSpec::tiny(3),
        DfsOptions {
            block_size: 1024,
            replication: 2,
            policy: Box::new(DefaultPlacement),
        },
    );
    let data: Vec<u8> = (0..200u8).collect();
    dfs.write_file("/f", None, &data).unwrap();
    (dfs, data)
}

fn corrupt_reads(dfs: &Dfs) -> u64 {
    dfs.metrics().total_corrupt_reads()
}

fn verified(dfs: &Dfs) -> usize {
    dfs.verified_replicas_per_node().iter().sum()
}

/// The holder whose local read of `/f` trips verification. (Only holders
/// are asked: a non-holder's remote read walks the replica list and would
/// trip over the bad copy too.)
fn victim_of(dfs: &Dfs) -> NodeId {
    dfs.hosts("/f")
        .unwrap()
        .into_iter()
        .find(|&n| {
            let before = corrupt_reads(dfs);
            dfs.read_file("/f", Some(n)).unwrap();
            corrupt_reads(dfs) > before
        })
        .expect("one node holds the corrupted replica")
}

#[test]
fn a_verified_replica_that_rots_is_caught_on_every_later_read() {
    let (dfs, data) = one_file();
    // Nothing is verified until it is read; a read verifies what it serves.
    assert_eq!(verified(&dfs), 0);
    for h in dfs.hosts("/f").unwrap() {
        assert_eq!(&dfs.read_file("/f", Some(h)).unwrap()[..], &data[..]);
    }
    assert_eq!(verified(&dfs), 2);
    assert_eq!(corrupt_reads(&dfs), 0);

    // Rot one of the two verified replicas: the flag goes with the bytes.
    assert_eq!(dfs.inject_corruption(46, 1), 1);
    assert_eq!(verified(&dfs), 1);
    let victim = victim_of(&dfs);

    // Every later attempt on the bad replica re-hashes it, counts it, and
    // falls over to the clean sibling — whole-file and header-range reads.
    for attempt in 0..4 {
        let before = corrupt_reads(&dfs);
        assert_eq!(&dfs.read_file("/f", Some(victim)).unwrap()[..], &data[..]);
        assert_eq!(corrupt_reads(&dfs), before + 1, "attempt {attempt}");
        assert_eq!(
            &dfs.read_range("/f", 0, 33, Some(victim)).unwrap()[..],
            &data[..33]
        );
        assert_eq!(corrupt_reads(&dfs), before + 2, "attempt {attempt}");
    }
    // A failed verification is never remembered as a success.
    assert_eq!(verified(&dfs), 1);
}

#[test]
fn a_verified_replica_that_rots_with_no_clean_sibling_is_unreadable() {
    let (dfs, _) = one_file();
    for h in dfs.hosts("/f").unwrap() {
        dfs.read_file("/f", Some(h)).unwrap();
    }
    assert_eq!(verified(&dfs), 2);
    assert_eq!(dfs.inject_corruption(46, 1), 1);
    let victim = victim_of(&dfs);
    for h in dfs.hosts("/f").unwrap() {
        if h != victim {
            dfs.kill_node(h).unwrap();
        }
    }
    for read in [
        dfs.read_file("/f", Some(victim)),
        dfs.read_range("/f", 0, 33, Some(victim)),
        dfs.read_file("/f", None),
    ] {
        let err = read.unwrap_err().to_string();
        assert!(err.contains("unavailable or corrupt"), "{err}");
    }
}

#[test]
fn an_off_cluster_node_is_a_typed_error_and_costs_no_data() {
    let n = 3;
    let dfs = Dfs::new(
        ClusterSpec::tiny(n),
        DfsOptions {
            block_size: 64,
            replication: 2,
            policy: Box::new(DefaultPlacement),
        },
    );
    let files: Vec<(String, Vec<u8>)> = (0..4u8)
        .map(|f| (format!("/f{f}"), (0..200u8).map(|b| b ^ f).collect()))
        .collect();
    for (path, data) in &files {
        dfs.write_file(path, None, data).unwrap();
    }
    for bad in [NodeId(n), NodeId(n + 5), NodeId(usize::MAX)] {
        let err = dfs.kill_node(bad).unwrap_err();
        assert!(matches!(err, ClydeError::Dfs(_)), "{err}");
        let err = dfs.restart_node(bad).unwrap_err();
        assert!(matches!(err, ClydeError::Dfs(_)), "{err}");
    }
    assert!((0..n).all(|i| dfs.is_node_alive(NodeId(i))));
    for (path, data) in &files {
        assert_eq!(&dfs.read_file(path, None).unwrap()[..], &data[..], "{path}");
    }
}

#[test]
fn node_loss_and_rereplication_leave_only_unverified_replicas() {
    let (dfs, data) = one_file();
    let hosts = dfs.hosts("/f").unwrap();
    for &h in &hosts {
        dfs.read_file("/f", Some(h)).unwrap();
    }
    assert_eq!(verified(&dfs), 2);

    // A killed node loses its replicas and their flags; it restarts empty.
    dfs.kill_node(hosts[0]).unwrap();
    assert_eq!(dfs.verified_replicas_per_node()[hosts[0].0], 0);
    dfs.restart_node(hosts[0]).unwrap();
    assert_eq!(dfs.verified_replicas_per_node()[hosts[0].0], 0);
    assert_eq!(verified(&dfs), 1);

    // Re-replication copies the survivor's bytes; the copy starts
    // unverified and its first read hashes it.
    assert_eq!(dfs.rereplicate().unwrap(), 1);
    assert_eq!(verified(&dfs), 1);
    let new_host = dfs
        .hosts("/f")
        .unwrap()
        .into_iter()
        .find(|&h| h != hosts[1])
        .unwrap();
    assert_eq!(dfs.verified_replicas_per_node()[new_host.0], 0);
    assert_eq!(&dfs.read_file("/f", Some(new_host)).unwrap()[..], &data[..]);
    assert_eq!(dfs.verified_replicas_per_node()[new_host.0], 1);
    assert_eq!(corrupt_reads(&dfs), 0);
}

#[test]
fn range_reads_are_bounds_checked_without_overflow() {
    let (dfs, data) = one_file();
    assert_eq!(
        &dfs.read_range("/f", 190, 10, None).unwrap()[..],
        &data[190..]
    );
    for (offset, len) in [
        (190, 11),
        (201, 0),
        (u64::MAX, 2),
        (2, u64::MAX),
        (u64::MAX, u64::MAX),
    ] {
        let err = dfs.read_range("/f", offset, len, None).unwrap_err();
        assert!(err.to_string().contains("beyond end of /f"), "{err}");
    }
}

/// Two threads racing the first (verifying) read of one replica agree — on
/// a clean replica both get the bytes and it ends up verified; on a bad one
/// both fail over and both attempts are counted. The barrier forces the
/// reads to start together; the outcome must not depend on who wins.
/// `read(0)` and `read(1)` on two threads released together by a barrier,
/// so both reach the replica before either has flagged it; the results in
/// thread order.
fn race_two<T: Send>(read: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let barrier = Barrier::new(2);
    #[expect(
        clippy::disallowed_methods,
        reason = "the racing tests force two readers onto one replica's first check"
    )]
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (read, barrier) = (&read, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    read(t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn racing_first_reads_of_one_replica_agree() {
    for round in 0..50 {
        let (dfs, data) = one_file();
        let corrupt = round % 2 == 1;
        let node = if corrupt {
            assert_eq!(dfs.inject_corruption(round, 1), 1);
            victim_of(&dfs)
        } else {
            dfs.hosts("/f").unwrap()[0]
        };
        let before = corrupt_reads(&dfs);
        let reads = race_two(|t| {
            if t == 0 {
                dfs.read_file("/f", Some(node)).unwrap().to_vec()
            } else {
                dfs.read_range("/f", 0, 200, Some(node)).unwrap().to_vec()
            }
        });
        assert!(reads.iter().all(|r| r == &data), "round {round}");
        assert_eq!(corrupt_reads(&dfs) - before, if corrupt { 2 } else { 0 });
        assert_eq!(
            dfs.verified_replicas_per_node()[node.0],
            usize::from(!corrupt)
        );
    }
}

// ---------------------------------------------------------------------------
// (a') verify-once chunk seals
// ---------------------------------------------------------------------------

fn sealed_replicas(dfs: &Dfs) -> usize {
    dfs.sealed_replicas_per_node().iter().sum()
}

/// An encoded `i32` column chunk whose seal is wrong: the damage happened
/// before the bytes were written, so every replica carries it and matches
/// the block checksum.
fn sealed_wrong(col: &ColumnData) -> Vec<u8> {
    let mut chunk = encode_column(col, Encoding::Plain).unwrap();
    *chunk.last_mut().unwrap() ^= 0x01;
    chunk
}

/// A one-group CIF table `/t` of two `i32` columns, `good` and `bad`; the
/// chunk of `bad` is sealed wrong when `damage` is set.
fn two_column_table(dfs: &Arc<Dfs>, damage: bool) -> CifReader {
    let schema = Schema::new(vec![Field::i32("good"), Field::i32("bad")]);
    let col = ColumnData::I32((0..100).collect());
    let good = encode_column(&col, Encoding::Plain).unwrap();
    let bad = if damage {
        sealed_wrong(&col)
    } else {
        good.clone()
    };
    let mut w = CifWriter::new(Arc::clone(dfs), "/t", schema, 100).unwrap();
    w.write_group(100, &[good, bad]).unwrap();
    w.close().unwrap();
    CifReader::open(dfs, "/t").unwrap()
}

#[test]
fn a_chunk_sealed_wrong_before_it_was_written_fails_every_read_group() {
    // Single-block chunks (verify-once) and chunks cut into 64-byte blocks
    // (assembled, so checked on every read).
    for block_size in [1 << 20, 64] {
        let dfs = Dfs::new(
            ClusterSpec::tiny(3),
            DfsOptions {
                block_size,
                replication: 2,
                policy: Box::new(ColocatingPlacement),
            },
        );
        let reader = two_column_table(&dfs, true);
        let hosts = reader.group_hosts(&dfs, 0).unwrap();
        assert_eq!(hosts.len(), 2);
        for attempt in 0..3 {
            for &h in &hosts {
                let io = TaskIo::new(Arc::clone(&dfs), h);
                let before = dfs.seal_checks();
                let err = reader.read_group(&io, 0, &[0, 1]).unwrap_err();
                assert!(
                    err.to_string().contains("checksum mismatch"),
                    "{block_size}: {err}"
                );
                // The bad seal is hashed again on every attempt.
                let bad_alone = dfs.seal_checks();
                assert!(bad_alone > before, "attempt {attempt}");
                assert!(reader.read_group(&io, 0, &[1]).is_err());
                assert_eq!(dfs.seal_checks(), bad_alone + 1, "attempt {attempt}");
                // The undamaged column alone still reads.
                reader.read_group(&io, 0, &[0]).unwrap();
            }
        }
        // The bytes matched the block checksum: nothing is corrupt, and
        // nothing is remembered about the bad seal.
        assert_eq!(corrupt_reads(&dfs), 0);
        let good_seals = if block_size == 64 { 0 } else { 2 };
        assert_eq!(sealed_replicas(&dfs), good_seals, "{block_size}");
        // The public decoder rejects the same chunk on every call.
        let bad = dfs.read_file("/t/rg000000/bad.col", None).unwrap();
        assert!(decode_column(&bad).is_err());
    }
}

#[test]
fn one_scan_seals_every_chunk_it_read_and_a_repeat_checks_none() {
    let (dfs, layout, gen) = load_ssb(3, Box::new(ColocatingPlacement));
    let data = gen.gen_all().unwrap();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    clyde.warm_dimension_cache().unwrap();
    let groups = CifReader::open(&dfs, &layout.fact_cif())
        .unwrap()
        .meta()
        .num_groups();
    // Q2.1 prunes no group; Q4.1 reads two more columns of every group.
    let q21 = query_by_id("Q2.1").unwrap();
    let q41 = query_by_id("Q4.1").unwrap();
    let cols = |q: &clyde_ssb::queries::StarQuery| q.fact_columns();
    let new_in_q41 = cols(&q41)
        .iter()
        .filter(|c| !cols(&q21).contains(c))
        .count();
    assert!(new_in_q41 > 0);

    assert_eq!((dfs.seal_checks(), sealed_replicas(&dfs)), (0, 0));
    let first = clyde.query(&q21).unwrap().rows;
    assert_eq!(first, reference_answer(&data, &q21).unwrap());
    // Every chunk was read once, from one replica, and that replica is now
    // sealed.
    let read = (groups * cols(&q21).len()) as u64;
    assert_eq!(dfs.seal_checks(), read);
    assert_eq!(sealed_replicas(&dfs) as u64, read);
    // The same query again hashes no seal and answers the same.
    assert_eq!(clyde.query(&q21).unwrap().rows, first);
    assert_eq!(dfs.seal_checks(), read);

    // A query over more columns hashes its new chunks, and old ones only
    // where it reads a replica Q2.1 did not (its groups balance over the
    // nodes by projected bytes): every hash sealed a replica read first.
    let more = clyde.query(&q41).unwrap().rows;
    assert_eq!(more, reference_answer(&data, &q41).unwrap());
    let read_more = dfs.seal_checks();
    assert!(read_more >= read + (groups * new_in_q41) as u64);
    assert_eq!(sealed_replicas(&dfs) as u64, read_more);
    assert_eq!(clyde.query(&q41).unwrap().rows, more);
    assert_eq!(clyde.query(&q21).unwrap().rows, first);
    assert_eq!(dfs.seal_checks(), read_more);
}

#[test]
fn corruption_node_loss_and_rereplication_leave_only_unsealed_replicas() {
    let dfs = Dfs::new(
        ClusterSpec::tiny(3),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(DefaultPlacement),
        },
    );
    let chunk = encode_column(&ColumnData::I32((0..100).collect()), Encoding::Plain).unwrap();
    dfs.write_file("/c", None, &chunk).unwrap();
    let read_on = |n: NodeId| {
        let io = TaskIo::new(Arc::clone(&dfs), n);
        assert_eq!(&io.read_sealed("/c").unwrap()[..], &chunk[..]);
    };
    let sealed_on = |n: NodeId| dfs.sealed_replicas_per_node()[n.0];
    let hosts = dfs.hosts("/c").unwrap();
    for &h in &hosts {
        read_on(h);
        read_on(h);
    }
    // Each replica's seal was hashed once.
    assert_eq!((dfs.seal_checks(), sealed_replicas(&dfs)), (2, 2));

    // A rotten replica is a new, unsealed one; reads on its node fall over
    // to the sealed sibling and hash nothing.
    assert_eq!(dfs.inject_corruption(46, 1), 1);
    assert_eq!(sealed_replicas(&dfs), 1);
    let survivor = *hosts.iter().find(|&&h| sealed_on(h) == 1).unwrap();
    for &h in &hosts {
        read_on(h);
    }
    assert!(corrupt_reads(&dfs) > 0);
    assert_eq!((dfs.seal_checks(), sealed_replicas(&dfs)), (2, 1));

    // Re-replication scrubs the rotten copy and copies bytes, never flags:
    // the copy's first sealed read hashes it.
    assert_eq!(dfs.rereplicate().unwrap(), 1);
    let copy = dfs
        .hosts("/c")
        .unwrap()
        .into_iter()
        .find(|&h| h != survivor)
        .unwrap();
    assert_eq!(sealed_on(copy), 0);
    read_on(copy);
    read_on(copy);
    assert_eq!((dfs.seal_checks(), sealed_on(copy)), (3, 1));

    // A lost node takes its flags with it and restarts empty.
    dfs.kill_node(survivor).unwrap();
    assert_eq!(sealed_on(survivor), 0);
    dfs.restart_node(survivor).unwrap();
    assert_eq!(sealed_on(survivor), 0);
    assert_eq!(sealed_replicas(&dfs), 1);
}

/// A plain `i32` chunk is read in place only after the sealed read served a
/// replica that matched its block checksum: a rotten replica falls over to
/// its clean sibling, and with no clean sibling the read is a typed error
/// and no column exists.
#[test]
fn a_rotten_plain_chunk_is_a_typed_error_before_it_is_read_in_place() {
    let want = ColumnData::I32((0..100).collect());
    let chunk_path = "/t/rg000000/good.col";
    // The seed decides which of the table's two files rots; take the first
    // seed that rots the chunk.
    let (dfs, reader, victim) = (0..64)
        .find_map(|seed| {
            let dfs = Dfs::for_tests(3);
            let reader = two_column_table(&dfs, false);
            assert_eq!(dfs.inject_corruption(seed, 1), 1);
            let victim = dfs.hosts(chunk_path).unwrap().into_iter().find(|&h| {
                let before = corrupt_reads(&dfs);
                dfs.read_file(chunk_path, Some(h)).unwrap();
                corrupt_reads(&dfs) > before
            })?;
            Some((dfs, reader, victim))
        })
        .expect("some seed rots the chunk");

    let io = TaskIo::new(Arc::clone(&dfs), victim);
    let block = reader.read_group(&io, 0, &[0]).unwrap();
    assert!(matches!(block.columns(), [ColumnData::I32Le(_)]));
    assert_eq!(block.columns(), [want]);

    for h in dfs.hosts(chunk_path).unwrap() {
        if h != victim {
            dfs.kill_node(h).unwrap();
        }
    }
    let io = TaskIo::new(Arc::clone(&dfs), victim);
    let err = reader.read_group(&io, 0, &[0]).unwrap_err();
    assert!(matches!(err, ClydeError::Dfs(_)), "{err}");
    assert_eq!(io.stats.total(), 0, "nothing was served");
}

/// Two threads racing the first sealed read of one chunk replica agree: on
/// a good chunk both get the bytes and the replica ends up sealed; on a
/// chunk sealed wrong both get the typed error and it stays unsealed.
#[test]
fn racing_first_reads_of_one_chunk_agree() {
    for round in 0..50 {
        let dfs = Dfs::for_tests(3);
        let damage = round % 2 == 1;
        let reader = two_column_table(&dfs, damage);
        let node = reader.group_hosts(&dfs, 0).unwrap()[0];
        let ios = [0, 1].map(|_| TaskIo::new(Arc::clone(&dfs), node));
        let reads = race_two(|t| {
            reader
                .read_group(&ios[t], 0, &[1])
                .map(|b| b.columns().to_vec())
                .map_err(|e| e.to_string())
        });
        if damage {
            assert!(reads.iter().all(Result::is_err), "round {round}");
        } else {
            let want = vec![ColumnData::I32((0..100).collect())];
            assert!(
                reads.iter().all(|r| r.as_ref() == Ok(&want)),
                "round {round}"
            );
        }
        assert_eq!(
            dfs.sealed_replicas_per_node()[node.0],
            usize::from(!damage),
            "round {round}"
        );
        assert!((1..=2).contains(&dfs.seal_checks()), "round {round}");
    }
}

// ---------------------------------------------------------------------------
// (b) decoder equivalence
// ---------------------------------------------------------------------------

/// The decoder `decode_column` replaced: a bounds-checked `take` and a
/// `push` per value. Kept only as the oracle; it may refuse (by panicking or
/// over-allocating) inputs the new decoder turns into errors, so it is only
/// ever fed chunks `encode_column` produced.
mod oracle {
    use super::*;

    fn take<const N: usize>(body: &[u8], pos: &mut usize) -> [u8; N] {
        let out = body[*pos..*pos + N].try_into().unwrap();
        *pos += N;
        out
    }

    fn read_str(body: &[u8], pos: &mut usize) -> Arc<str> {
        let len = varint::read_u64(body, pos).unwrap() as usize;
        let s = std::str::from_utf8(&body[*pos..*pos + len]).unwrap();
        *pos += len;
        Arc::from(s)
    }

    fn rle(body: &[u8], pos: &mut usize, n: usize, mut push: impl FnMut(i64)) {
        let mut produced = 0;
        while produced < n {
            let count = varint::read_u64(body, pos).unwrap() as usize;
            let value = varint::read_i64(body, pos).unwrap();
            assert!(produced + count <= n);
            (0..count).for_each(|_| push(value));
            produced += count;
        }
    }

    pub fn decode(data: &[u8]) -> ColumnData {
        let body = &data[..data.len() - 8];
        assert_eq!(
            chunk_checksum(body),
            u64::from_le_bytes(data[body.len()..].try_into().unwrap())
        );
        let mut pos = 2usize;
        let n = varint::read_u64(body, &mut pos).unwrap() as usize;
        if body[pos] == 1 {
            pos += 1;
            varint::read_i64(body, &mut pos).unwrap();
            varint::read_i64(body, &mut pos).unwrap();
        } else {
            pos += 1;
        }
        let pos = &mut pos;
        match (body[1], DatumType::from_tag(body[0]).unwrap()) {
            (0, DatumType::I32) => ColumnData::I32(
                (0..n)
                    .map(|_| i32::from_le_bytes(take(body, pos)))
                    .collect(),
            ),
            (0, DatumType::I64) => ColumnData::I64(
                (0..n)
                    .map(|_| i64::from_le_bytes(take(body, pos)))
                    .collect(),
            ),
            (0, DatumType::F64) => ColumnData::F64(
                (0..n)
                    .map(|_| f64::from_bits(u64::from_le_bytes(take(body, pos))))
                    .collect(),
            ),
            (0, DatumType::Str) => ColumnData::Str((0..n).map(|_| read_str(body, pos)).collect()),
            (1, DatumType::Str) => {
                let dict_len = varint::read_u64(body, pos).unwrap() as usize;
                let dict: Vec<Arc<str>> = (0..dict_len).map(|_| read_str(body, pos)).collect();
                ColumnData::Str(
                    (0..n)
                        .map(|_| Arc::clone(&dict[varint::read_u64(body, pos).unwrap() as usize]))
                        .collect(),
                )
            }
            (2, DatumType::I32) => {
                let mut v = Vec::new();
                rle(body, pos, n, |x| v.push(i32::try_from(x).unwrap()));
                ColumnData::I32(v)
            }
            (2, DatumType::I64) => {
                let mut v = Vec::new();
                rle(body, pos, n, |x| v.push(x));
                ColumnData::I64(v)
            }
            other => panic!("oracle: unexpected encoding/type {other:?}"),
        }
    }
}

fn chunk_checksum(body: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(body);
    h.finish()
}

/// Seal a hand-written chunk body with a valid checksum, so the decoder gets
/// past the integrity check and has to survive the contents.
fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    let sum = chunk_checksum(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// NaN-safe equality (payload bits included).
fn same_column(a: &ColumnData, b: &ColumnData) -> bool {
    match (a, b) {
        (ColumnData::F64(x), ColumnData::F64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

/// Arbitrary columns of every type; integer columns mix full-range values
/// with runs so every encoding has something to chew on.
fn arb_column() -> impl Strategy<Value = ColumnData> {
    let runs_i32 = proptest::collection::vec((any::<i32>(), 1usize..40), 0..12)
        .prop_map(|runs| runs.into_iter().flat_map(|(v, n)| vec![v; n]).collect());
    let runs_i64 = proptest::collection::vec((any::<i64>(), 1usize..40), 0..12)
        .prop_map(|runs| runs.into_iter().flat_map(|(v, n)| vec![v; n]).collect());
    prop_oneof![
        proptest::collection::vec(any::<i32>(), 0..300).prop_map(ColumnData::I32),
        runs_i32.prop_map(ColumnData::I32),
        proptest::collection::vec(any::<i64>(), 0..300).prop_map(ColumnData::I64),
        runs_i64.prop_map(ColumnData::I64),
        proptest::collection::vec(any::<f64>(), 0..300).prop_map(ColumnData::F64),
        proptest::collection::vec("[a-d]{0,4}", 0..300)
            .prop_map(|v| ColumnData::Str(v.iter().map(|s| Arc::from(s.as_str())).collect())),
    ]
}

const ENCODINGS: [Encoding; 3] = [Encoding::Plain, Encoding::Dict, Encoding::Rle];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn decode_column_equals_the_element_at_a_time_decoder(col in arb_column()) {
        for enc in ENCODINGS {
            // Unsupported pairs (Dict over integers, Rle over strings, ...)
            // are refused at encode time and have nothing to decode.
            let Ok(bytes) = encode_column(&col, enc) else { continue };
            let new = decode_column(&bytes).unwrap();
            prop_assert!(same_column(&new, &oracle::decode(&bytes)), "{enc:?} diverges from the oracle");
            prop_assert!(same_column(&new, &col), "{enc:?} does not round-trip");
        }
    }

    #[test]
    fn damaged_chunks_are_typed_errors(col in arb_column(), at in any::<usize>(), bit in 0u32..8) {
        for enc in ENCODINGS {
            let Ok(bytes) = encode_column(&col, enc) else { continue };
            // Every truncation, including to nothing.
            let cut = at % bytes.len();
            prop_assert!(decode_column(&bytes[..cut]).is_err());
            // Every single-bit flip is caught by the chunk checksum.
            let mut flipped = bytes.clone();
            flipped[cut] ^= 1 << bit;
            prop_assert!(decode_column(&flipped).is_err());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        dtype in 0u8..5,
        enc in 0u8..4,
        noise in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // Raw noise dies at the checksum. Sealed noise behind plausible
        // tags gets through it and into every header and payload check.
        // Either way the answer is a `Result`, and what does decode was
        // backed by payload bytes, never by a claimed count. (RLE noise is
        // kept to one-byte varints: a run legitimately expands to its own
        // length, so a wild count there is a wild allocation by design of
        // the format, bounded by the claimed rows — see the crafted-run
        // test.)
        let _ = decode_column(&noise);
        let mut body = vec![dtype, enc];
        body.extend(noise.iter().map(|b| if enc == 2 { b & 0x7f } else { *b }));
        if let Ok(col) = decode_column(&sealed(body)) {
            prop_assert!(col.len() <= noise.len() * 0x7f);
        }
    }

    #[test]
    fn sealed_headers_with_lying_counts_are_typed_errors(
        dtype in 0u8..4,
        enc in 0u8..3,
        rows in any::<u64>(),
        payload in proptest::collection::vec(0u8..0x80, 0..48),
    ) {
        // A valid checksum over a header whose row count the payload cannot
        // back: refused, with nothing allocated from `rows`.
        let rows = rows | (1 << 40);
        let mut body = vec![dtype, enc];
        varint::write_u64(&mut body, rows);
        body.push(0); // no zone map
        body.extend_from_slice(&payload);
        prop_assert!(decode_column(&sealed(body)).is_err());
    }
}

#[test]
fn crafted_rle_runs_cannot_overflow_or_exhaust_memory() {
    // i64 column, RLE, header claims `rows`; one run of `count`.
    let chunk = |rows: u64, runs: &[(u64, i64)]| {
        let mut body = vec![DatumType::I64.tag(), 2];
        varint::write_u64(&mut body, rows);
        body.push(0);
        for &(count, value) in runs {
            varint::write_u64(&mut body, count);
            varint::write_i64(&mut body, value);
        }
        sealed(body)
    };
    // Sanity: the hand-written shape is the real format.
    assert_eq!(
        decode_column(&chunk(5, &[(2, 7), (3, -1)])).unwrap(),
        ColumnData::I64(vec![7, 7, -1, -1, -1])
    );
    // `produced + count` used to wrap: 1 + u64::MAX == 0 <= n.
    let err = decode_column(&chunk(2, &[(1, 7), (u64::MAX, 9)])).unwrap_err();
    assert!(
        err.to_string().contains("RLE run overflows row count"),
        "{err}"
    );
    // A run that fits the claimed count but not memory is refused, not tried.
    let huge = u64::MAX >> 1;
    let err = decode_column(&chunk(huge, &[(huge, 7)])).unwrap_err();
    assert!(err.to_string().contains("too large"), "{err}");
    // Runs that stop short of the claimed count are truncated input.
    assert!(decode_column(&chunk(9, &[(2, 7)])).is_err());
}

// ---------------------------------------------------------------------------
// (c) one table handle per job
// ---------------------------------------------------------------------------

const SF: f64 = 0.004;
const SEED: u64 = 46;
const RPG: u64 = 2_000;

fn load_ssb(nodes: usize, policy: Box<dyn BlockPlacementPolicy>) -> (Arc<Dfs>, SsbLayout, SsbGen) {
    let dfs = Dfs::new(
        ClusterSpec::tiny(nodes),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy,
        },
    );
    let layout = SsbLayout::default();
    let gen = SsbGen::new(SF, SEED);
    loader::load(
        &dfs,
        gen,
        &layout,
        &loader::LoadOpts {
            rows_per_group: RPG,
            cif: true,
            rcfile: false,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    (dfs, layout, gen)
}

#[test]
fn one_engine_tracks_roll_in_and_roll_out_between_queries() {
    let (dfs, layout, gen) = load_ssb(3, Box::new(ColocatingPlacement));
    let mut data = gen.gen_all().unwrap();
    // The loader clusters by date; mirror it so roll-out drops the same rows.
    data.lineorder.sort_by_key(|r| r.at(5).as_i64());
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    clyde.warm_dimension_cache().unwrap();
    let queries = ["Q1.1", "Q2.1", "Q3.4"].map(|id| query_by_id(id).unwrap());
    let check = |data: &clyde_ssb::gen::SsbData, when: &str| {
        for q in &queries {
            assert_eq!(
                clyde.query(q).unwrap().rows,
                reference_answer(data, q).unwrap(),
                "{} diverged {when}",
                q.id
            );
        }
    };
    check(&data, "on the loaded table");

    let mut appender = CifAppender::open(Arc::clone(&dfs), &layout.fact_cif()).unwrap();
    SsbGen::new(0.002, 99)
        .for_each_lineorder(|r| {
            appender.append(r)?;
            data.lineorder.push(r.clone());
            Ok(())
        })
        .unwrap();
    appender.close().unwrap();
    check(&data, "after roll-in");

    let dropped: u64 = CifReader::open(&dfs, &layout.fact_cif())
        .unwrap()
        .meta()
        .group_rows[..2]
        .iter()
        .sum();
    roll_out(&dfs, &layout.fact_cif(), 2).unwrap();
    data.lineorder.drain(..dropped as usize);
    check(&data, "after roll-out");
}

/// Every row a format's splits yield, through `open()`.
fn drain(fmt: &CifInputFormat, dfs: &Arc<Dfs>) -> Vec<Row> {
    let io = TaskIo::client(Arc::clone(dfs));
    let mut rows = Vec::new();
    for split in fmt.splits(dfs, &JobConf::new()).unwrap() {
        for part in 0..split.spec.num_parts() {
            let mut blocks = fmt.open(&split, part, &io).unwrap().into_blocks().unwrap();
            while let Some(b) = blocks.next_block().unwrap() {
                rows.extend(b.rows());
            }
        }
    }
    rows
}

#[test]
fn a_reused_format_never_serves_an_earlier_jobs_meta() {
    let (dfs, layout, _) = load_ssb(3, Box::new(ColocatingPlacement));
    let base = layout.fact_cif();
    let table_rows = |dfs: &Arc<Dfs>| {
        CifReader::open(dfs, &base)
            .unwrap()
            .read_all_rows(dfs)
            .unwrap()
    };
    let fmt = CifInputFormat::new(base.clone());

    // Before any `splits()` the format holds nothing and `open()` resolves
    // the table itself.
    let first = fmt.splits(&dfs, &JobConf::new()).unwrap();
    let unplanned = CifInputFormat::new(base.clone());
    let io = TaskIo::client(Arc::clone(&dfs));
    let mut blocks = unplanned
        .open(&first[0], 0, &io)
        .unwrap()
        .into_blocks()
        .unwrap();
    assert_eq!(blocks.next_block().unwrap().unwrap().len() as u64, RPG);

    assert_eq!(drain(&fmt, &dfs), table_rows(&dfs));

    // Roll the two oldest groups out and a batch in: logical group 0 is now
    // a different directory and there are more groups than before. A format
    // still serving the first `_meta` would read deleted files.
    let mut appender = CifAppender::open(Arc::clone(&dfs), &base).unwrap();
    SsbGen::new(0.001, 7)
        .for_each_lineorder(|r| appender.append(r))
        .unwrap();
    appender.close().unwrap();
    roll_out(&dfs, &base, 2).unwrap();
    let now = table_rows(&dfs);
    assert_eq!(drain(&fmt, &dfs), now);

    // Within one job the snapshot is stable: splits planned before a
    // roll-in still open the groups they were planned over.
    let planned = fmt.splits(&dfs, &JobConf::new()).unwrap();
    let mut appender = CifAppender::open(Arc::clone(&dfs), &base).unwrap();
    SsbGen::new(0.001, 8)
        .for_each_lineorder(|r| appender.append(r))
        .unwrap();
    appender.close().unwrap();
    let mut rows = Vec::new();
    for split in &planned {
        let mut blocks = fmt.open(split, 0, &io).unwrap().into_blocks().unwrap();
        while let Some(b) = blocks.next_block().unwrap() {
            rows.extend(b.rows());
        }
    }
    assert_eq!(rows, now);
}

/// The splits `fmt` (one per group) plans now, against a cold
/// `locate_groups` of a freshly opened reader over the same columns; and
/// how many namespace walks planning took.
fn assert_plan_is_cold(fmt: &CifInputFormat, dfs: &Dfs, when: &str) -> u64 {
    let walks = dfs.namespace_walks();
    let planned: Vec<_> = fmt
        .splits(dfs, &JobConf::new())
        .unwrap()
        .into_iter()
        .map(|split| {
            let SplitSpec::Groups { groups, .. } = split.spec else {
                panic!("CIF plans group splits");
            };
            (groups, split.hosts, split.bytes)
        })
        .collect();
    let walked = dfs.namespace_walks() - walks;
    let reader = CifReader::open(dfs, &fmt.base).unwrap();
    let cols: Vec<usize> = fmt
        .columns
        .as_ref()
        .unwrap()
        .iter()
        .map(|c| reader.column_index(c).unwrap())
        .collect();
    let cold: Vec<_> = reader
        .locate_groups(dfs, &cols)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(g, loc)| (vec![g], loc.hosts, loc.bytes))
        .collect();
    assert_eq!(planned, cold, "splits {when}");
    walked
}

/// What a scan of every group of `fmt`'s table produced: its rows, local
/// and remote bytes, zone-checked and zone-skipped counts and the corrupt
/// replica reads it met. Group `g` is read on node `g mod n`, so a scan
/// mixes local and remote reads on any placement.
type ScanOutcome = (Vec<Row>, u64, u64, u64, u64, u64);

fn scan_outcome(dfs: &Dfs, rows: Vec<Row>, ios: &[TaskIo], corrupt_before: u64) -> ScanOutcome {
    let sum = |f: fn(&TaskIo) -> u64| ios.iter().map(f).sum::<u64>();
    (
        rows,
        sum(|io| io.stats.local()),
        sum(|io| io.stats.remote()),
        sum(|io| io.stats.zone_checked()),
        sum(|io| io.stats.zone_skipped()),
        corrupt_reads(dfs) - corrupt_before,
    )
}

fn node_ios(dfs: &Arc<Dfs>) -> Vec<TaskIo> {
    (0..dfs.cluster().num_workers())
        .map(|n| TaskIo::new(Arc::clone(dfs), NodeId(n)))
        .collect()
}

/// Every group through a freshly planned `fmt`: zone checks and chunk
/// reads go through the files the planning walk resolved.
fn resolved_scan(fmt: &CifInputFormat, dfs: &Arc<Dfs>) -> ScanOutcome {
    let (ios, corrupt) = (node_ios(dfs), corrupt_reads(dfs));
    let mut rows = Vec::new();
    for split in fmt.splits(dfs, &JobConf::new()).unwrap() {
        let SplitSpec::Groups { groups, .. } = &split.spec else {
            panic!("CIF plans group splits");
        };
        let io = &ios[groups[0] % ios.len()];
        let mut blocks = fmt.open(&split, 0, io).unwrap().into_blocks().unwrap();
        while let Some(b) = blocks.next_block().unwrap() {
            rows.extend(b.rows());
        }
    }
    scan_outcome(dfs, rows, &ios, corrupt)
}

/// The same scan cold and by path: `_meta` read afresh, each zone
/// predicate's column chunk prefix read by its path, and the group's
/// chunks read by path.
fn path_keyed_scan(fmt: &CifInputFormat, dfs: &Arc<Dfs>) -> ScanOutcome {
    let (ios, corrupt) = (node_ios(dfs), corrupt_reads(dfs));
    let reader = CifReader::open(dfs, &fmt.base).unwrap();
    let cols: Vec<usize> = fmt
        .columns
        .as_ref()
        .unwrap()
        .iter()
        .map(|c| reader.column_index(c).unwrap())
        .collect();
    let mut rows = Vec::new();
    for g in 0..reader.meta().num_groups() {
        let io = &ios[g % ios.len()];
        let pruned = fmt.zone_preds.iter().any(|zp| {
            let path = reader.meta().column_path(g, &zp.column);
            let prefix = io.read_prefix(&path, ZONE_HEADER_MAX as u64).unwrap();
            io.stats.add_zone_checked(1);
            let disjoint = peek_zone_map(&prefix)
                .unwrap()
                .is_some_and(|(min, max)| max < zp.lo || min > zp.hi);
            if disjoint {
                io.stats.add_zone_skipped(1);
            }
            disjoint
        });
        if !pruned {
            rows.extend(reader.read_group(io, g, &cols).unwrap().rows());
        }
    }
    scan_outcome(dfs, rows, &ios, corrupt)
}

/// One engine and one format live through every kind of namespace change;
/// after each, a scan through resolved files equals a cold path-keyed one,
/// planning walks the namespace once and equals a cold plan, re-planning
/// walks it not at all, and the queries equal the reference.
fn plans_follow_every_namespace_change(nodes: usize, policy: Box<dyn BlockPlacementPolicy>) {
    let (dfs, layout, gen) = load_ssb(nodes, policy);
    let base = layout.fact_cif();
    let mut data = gen.gen_all().unwrap();
    // The loader clusters by date; mirror it so roll-out drops the same rows.
    data.lineorder.sort_by_key(|r| r.at(5).as_i64());
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    clyde.warm_dimension_cache().unwrap();
    let queries = ["Q1.1", "Q2.1", "Q3.4"].map(|id| query_by_id(id).unwrap());
    let fmt = CifInputFormat::new(base.clone()).with_columns(queries[0].fact_columns());
    let zoned = CifInputFormat::new(base.clone())
        .with_columns(queries[0].fact_columns())
        .with_zone_preds(zone_preds(&queries[0]));
    let check = |data: &clyde_ssb::gen::SsbData, when: &str| {
        assert_eq!(assert_plan_is_cold(&fmt, &dfs, when), 1, "one walk {when}");
        assert_eq!(
            resolved_scan(&zoned, &dfs),
            path_keyed_scan(&zoned, &dfs),
            "resolved read {when}"
        );
        for q in &queries {
            assert_eq!(
                clyde.query(q).unwrap().rows,
                reference_answer(data, q).unwrap(),
                "{} diverged {when}",
                q.id
            );
        }
        assert_eq!(assert_plan_is_cold(&fmt, &dfs, when), 0, "no walk {when}");
    };
    check(&data, "on the loaded table");

    dfs.write_file("/unrelated", None, b"x").unwrap();
    check(&data, "after an unrelated write");
    dfs.delete("/unrelated").unwrap();
    check(&data, "after a delete");

    let mut appender = CifAppender::open(Arc::clone(&dfs), &base).unwrap();
    SsbGen::new(0.002, 99)
        .for_each_lineorder(|r| {
            appender.append(r)?;
            data.lineorder.push(r.clone());
            Ok(())
        })
        .unwrap();
    appender.close().unwrap();
    check(&data, "after roll-in");

    let dropped: u64 = CifReader::open(&dfs, &base).unwrap().meta().group_rows[..2]
        .iter()
        .sum();
    roll_out(&dfs, &base, 2).unwrap();
    data.lineorder.drain(..dropped as usize);
    check(&data, "after roll-out");

    // A node holding a column file of the first live group.
    let meta = CifReader::open(&dfs, &base).unwrap().meta().clone();
    let first_file = meta.column_path(0, &meta.schema.fields()[0].name);
    dfs.kill_node(dfs.hosts(&first_file).unwrap()[0]).unwrap();
    assert!(dfs.rereplicate().unwrap() > 0);
    check(&data, "after node loss and re-replication");

    assert!(dfs.inject_corruption(SEED, 8) > 0);
    check(&data, "after corruption");
}

#[test]
fn plans_follow_every_namespace_change_colocated() {
    plans_follow_every_namespace_change(4, Box::new(ColocatingPlacement));
}

#[test]
fn plans_follow_every_namespace_change_scattered() {
    plans_follow_every_namespace_change(4, Box::new(DefaultPlacement));
}

/// What a job's profile prices, without its wall-clock fields.
fn priced_counters(p: &JobProfile) -> impl PartialEq + std::fmt::Debug {
    let tasks = |ts: &[TaskProfile]| ts.iter().map(|t| (t.node, t.cost)).collect::<Vec<_>>();
    (
        (
            tasks(&p.map_tasks),
            tasks(&p.reduce_tasks),
            p.map_concurrency,
        ),
        (p.shuffle_bytes, p.client_build_rows, p.client_publish_bytes),
        (p.memory_per_slot, p.memory_shared, p.failed_attempts),
        p.split_locality.to_bits(),
    )
}

#[test]
fn a_repeated_query_plans_without_walking_the_namespace() {
    let (dfs, layout, _) = load_ssb(3, Box::new(ColocatingPlacement));
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
    clyde.warm_dimension_cache().unwrap();
    let run = |q| {
        let (walks, io) = (dfs.namespace_walks(), dfs.io_scope());
        let r = clyde.query(q).unwrap();
        (r, io.delta(), dfs.namespace_walks() - walks)
    };
    // All 13 queries plan the one fact table: the first walks the
    // namespace, and no query changes it, so none walks it again.
    let queries = all_queries();
    let first: Vec<_> = queries.iter().map(run).collect();
    let walks: Vec<u64> = first.iter().map(|(_, _, w)| *w).collect();
    assert_eq!(walks.iter().sum::<u64>(), 1, "{walks:?}");
    assert_eq!(walks.first(), Some(&1));
    for (q, (first, first_io, _)) in queries.iter().zip(&first) {
        let (again, again_io, again_walks) = run(q);
        assert_eq!(again_walks, 0, "{}", q.id);
        assert_eq!(again.rows, first.rows, "{}", q.id);
        assert_eq!(again.cost, first.cost, "{}", q.id);
        assert_eq!(
            priced_counters(&again.profile),
            priced_counters(&first.profile),
            "{}",
            q.id
        );
        assert_eq!(&again_io, first_io, "{}", q.id);
    }
}

#[test]
fn a_read_through_a_stale_resolution_is_a_typed_error_naming_the_path() {
    let (dfs, layout, _) = load_ssb(3, Box::new(ColocatingPlacement));
    let base = layout.fact_cif();
    let fmt = CifInputFormat::new(base.clone()).with_columns(vec!["lo_revenue".into()]);
    let planned = fmt.splits(&dfs, &JobConf::new()).unwrap();
    let gone = CifReader::open(&dfs, &base)
        .unwrap()
        .meta()
        .column_path(0, "lo_revenue");
    // Roll-out deletes the oldest group's files after the job planned them.
    roll_out(&dfs, &base, 1).unwrap();
    assert!(!dfs.exists(&gone));
    let io = TaskIo::client(Arc::clone(&dfs));
    let err = fmt.open(&planned[0], 0, &io).map(|_| ()).unwrap_err();
    assert!(
        matches!(&err, ClydeError::Dfs(m) if m.contains(&gone)),
        "{err:?}"
    );
    assert_eq!(io.stats.total(), 0, "nothing was served");
    // The groups the roll-out left are still read through the same plan.
    let mut blocks = fmt
        .open(&planned[1], 0, &io)
        .unwrap()
        .into_blocks()
        .unwrap();
    assert_eq!(blocks.next_block().unwrap().unwrap().len() as u64, RPG);
}

#[test]
fn a_repeated_query_resolves_no_column_file_by_path() {
    let (dfs, layout, _) = load_ssb(3, Box::new(ColocatingPlacement));
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
    clyde.warm_dimension_cache().unwrap();
    let queries = ["Q1.1", "Q1.2", "Q3.4", "Q4.2"].map(|id| query_by_id(id).unwrap());
    for q in &queries {
        clyde.query(q).unwrap();
    }
    for q in &queries {
        let lookups = dfs.path_lookups();
        let r = clyde.query(q).unwrap();
        assert_eq!(dfs.path_lookups() - lookups, 1, "{}: only `_meta`", q.id);
        let want = COLOCATED.iter().find(|p| p.0 == q.id).unwrap();
        assert_eq!(&priced(want.0, &r), want);
    }
}

/// A one-table RCFile `/rc` of `rows` rows `(i * mul, i)`, ten per group,
/// replacing any earlier table there.
fn rc_table(dfs: &Arc<Dfs>, rows: i32, mul: i32) -> Vec<Row> {
    for path in ["/rc.rc", "/rc.rc.meta"] {
        if dfs.exists(path) {
            dfs.delete(path).unwrap();
        }
    }
    let schema = Schema::new(vec![Field::i32("a"), Field::i64("b")]);
    let mut w = RcFileWriter::new(Arc::clone(dfs), "/rc", schema, 10).unwrap();
    let rows: Vec<Row> = (0..rows)
        .map(|i| clyde_common::row![i * mul, i64::from(i)])
        .collect();
    for r in &rows {
        w.append(r).unwrap();
    }
    w.close().unwrap();
    rows
}

/// Every row an RCFile format's splits yield through `open()`, and the
/// bytes the DFS served beyond what the task reads accounted: `.meta`
/// reads.
fn drain_rc(fmt: &RcFileInputFormat, dfs: &Arc<Dfs>) -> (Vec<Row>, u64) {
    let io = TaskIo::client(Arc::clone(dfs));
    let before = dfs.metrics().total_read();
    let mut rows = Vec::new();
    for split in fmt.splits(dfs, &JobConf::new()).unwrap() {
        let mut reader = fmt.open(&split, 0, &io).unwrap().into_rows().unwrap();
        while let Some((_, row)) = reader.next().unwrap() {
            rows.push(row);
        }
    }
    let untracked = dfs.metrics().total_read() - before - io.stats.total();
    (rows, untracked)
}

#[test]
fn an_rcfile_format_reads_its_meta_once_per_job() {
    let dfs = Dfs::for_tests(3);
    let first = rc_table(&dfs, 23, 1);
    let meta_len = dfs.file_len("/rc.rc.meta").unwrap();
    let fmt = RcFileInputFormat::new("/rc");

    // Three groups, one `.meta` read: the one `splits()` made.
    assert_eq!(drain_rc(&fmt, &dfs), (first, meta_len));

    // A format that planned nothing opens the table itself.
    let planned = fmt.splits(&dfs, &JobConf::new()).unwrap();
    let io = TaskIo::client(Arc::clone(&dfs));
    let unplanned = RcFileInputFormat::new("/rc");
    let mut rows = unplanned
        .open(&planned[2], 0, &io)
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(
        rows.next().unwrap().unwrap().1,
        clyde_common::row![20i32, 20i64]
    );

    // The next job's `splits()` replaces the handle: a rewritten table is
    // read, not the first job's snapshot of it.
    let second = rc_table(&dfs, 17, 3);
    let meta_len = dfs.file_len("/rc.rc.meta").unwrap();
    assert_eq!(drain_rc(&fmt, &dfs), (second, meta_len));
}

/// Per query: (id, zone_checked, zone_skipped, local bytes, remote bytes,
/// total simulated seconds as bits), summed over the map tasks — recorded
/// from the parent commit (per-part `CifReader::open`, per-file planning
/// lookups, element-at-a-time decode, verify-every-read) on this exact
/// setup. Nothing the cost model prices may move.
type Priced = (&'static str, u64, u64, u64, u64, u64);

const COLOCATED: [Priced; 13] = [
    ("Q1.1", 36, 9, 76215, 0, 0x402b0913dd29eb5c),
    ("Q1.2", 36, 11, 26152, 0, 0x402b08e77af7c421),
    ("Q1.3", 36, 9, 76245, 0, 0x402b093e7285fd04),
    ("Q2.1", 0, 0, 300405, 0, 0x402b0ca8dc317b10),
    ("Q2.2", 0, 0, 300405, 0, 0x402b0c648d6413ad),
    ("Q2.3", 0, 0, 300405, 0, 0x402b0c5bfaf33351),
    ("Q3.1", 12, 1, 214863, 0, 0x402b09d7e2352cd9),
    ("Q3.2", 12, 1, 214863, 0, 0x402b09d1c05ab1ce),
    ("Q3.3", 12, 1, 214863, 0, 0x402b09b52fe36b45),
    ("Q3.4", 12, 11, 25441, 0, 0x402b0955e61c4ed3),
    ("Q4.1", 0, 0, 431860, 0, 0x402b0d1005987754),
    ("Q4.2", 12, 8, 157948, 0, 0x402b0c8ea9a23a9a),
    ("Q4.3", 12, 8, 157948, 0, 0x402b0c7e84a4fd0a),
];

/// The same table under `DefaultPlacement` on four nodes: column files of a
/// group land on different node sets, so most groups have no fully-local
/// host and the hosts rule and its ordering decide what is read remotely.
const SCATTERED: [Priced; 13] = [
    ("Q1.1", 36, 9, 34529, 41686, 0x402b08e33d52a533),
    ("Q1.2", 36, 11, 17510, 8642, 0x402b08e14cdbbe89),
    ("Q1.3", 36, 9, 66562, 9683, 0x402b090cb5bf4cc2),
    ("Q2.1", 0, 0, 133078, 167327, 0x402b0c2d096730ba),
    ("Q2.2", 0, 0, 133078, 167327, 0x402b0bf1afd2b88b),
    ("Q2.3", 0, 0, 133078, 167327, 0x402b0beccfc74ee9),
    ("Q3.1", 12, 1, 84412, 130451, 0x402b099d99e9a072),
    ("Q3.2", 12, 1, 84412, 130451, 0x402b0996975c5392),
    ("Q3.3", 12, 1, 84412, 130451, 0x402b097c0acb1212),
    ("Q3.4", 12, 11, 17228, 8213, 0x402b094fead7d04e),
    ("Q4.1", 0, 0, 164384, 267476, 0x402b0c98dc2a73e8),
    ("Q4.2", 12, 8, 74603, 83345, 0x402b0c313ef32423),
    ("Q4.3", 12, 8, 74603, 83345, 0x402b0c27480fff82),
];

fn assert_priced_as_parent(nodes: usize, policy: Box<dyn BlockPlacementPolicy>, want: &[Priced]) {
    let (dfs, layout, _) = load_ssb(nodes, policy);
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout);
    clyde.warm_dimension_cache().unwrap();
    let queries = all_queries();
    assert_eq!(queries.len(), want.len());
    // Twice: the second pass reads only verified replicas.
    for pass in 0..2 {
        for (q, want) in queries.iter().zip(want) {
            let r = clyde.query(q).unwrap();
            assert_eq!(q.id, want.0);
            assert_eq!(&priced(want.0, &r), want, "{} pass {pass}", q.id);
        }
    }
}

/// A query's [`Priced`] row, labelled `id`.
fn priced(id: &'static str, r: &clydesdale::QueryResult) -> Priced {
    let sum =
        |f: fn(&TaskCost) -> u64| -> u64 { r.profile.map_tasks.iter().map(|t| f(&t.cost)).sum() };
    (
        id,
        sum(|c| c.zone_checked),
        sum(|c| c.zone_skipped),
        sum(|c| c.local_bytes),
        sum(|c| c.remote_bytes),
        r.total_s().to_bits(),
    )
}

#[test]
fn every_priced_counter_equals_the_parent_commits_colocated() {
    assert_priced_as_parent(3, Box::new(ColocatingPlacement), &COLOCATED);
}

#[test]
fn every_priced_counter_equals_the_parent_commits_scattered() {
    assert_priced_as_parent(4, Box::new(DefaultPlacement), &SCATTERED);
}
