//! The namenode: file namespace and block map.

use crate::block::{BlockId, BlockMeta};
use crate::topology::NodeId;
use clyde_common::{ClydeError, FxHashMap, Result};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Namespace entry for one write-once file.
#[derive(Debug, Clone)]
pub struct FileEntry {
    pub path: String,
    pub len: u64,
    pub blocks: Vec<BlockId>,
    /// Placement group the file was created with (see `placement`).
    pub group: Option<String>,
}

/// The file namespace and block metadata, single-writer (guarded by the
/// `Dfs` facade's lock).
///
/// Every `&mut self` method reaches the namespace through
/// [`Namenode::change`], which advances the epoch: whatever is derived from
/// the namespace and kept beside it (`Dfs::table_locations`) is valid
/// exactly while the epoch it was derived at is current.
#[derive(Debug, Default)]
pub struct Namenode {
    ns: Namespace,
    epoch: u64,
}

#[derive(Debug, Default)]
struct Namespace {
    files: BTreeMap<String, FileEntry>,
    blocks: FxHashMap<BlockId, BlockMeta>,
    next_block: u64,
}

impl Namenode {
    pub fn new() -> Namenode {
        Namenode::default()
    }

    /// How many changes the namespace has seen. Reads never advance it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The namespace, for a change: the one `&mut` path into it.
    fn change(&mut self) -> &mut Namespace {
        self.epoch = self.epoch.wrapping_add(1);
        &mut self.ns
    }

    /// Allocate a fresh block id with the given replica set and content
    /// checksum.
    pub fn allocate_block(&mut self, len: u64, replicas: Vec<NodeId>, checksum: u64) -> BlockId {
        let ns = self.change();
        let id = BlockId(ns.next_block);
        ns.next_block += 1;
        ns.blocks.insert(
            id,
            BlockMeta {
                id,
                len,
                replicas,
                checksum,
            },
        );
        id
    }

    /// Finalize a file. Errors if the path already exists (files are
    /// write-once, like HDFS).
    pub fn commit_file(&mut self, entry: FileEntry) -> Result<()> {
        let ns = self.change();
        if ns.files.contains_key(&entry.path) {
            return Err(ClydeError::Dfs(format!(
                "file already exists: {}",
                entry.path
            )));
        }
        ns.files.insert(entry.path.clone(), entry);
        Ok(())
    }

    pub fn file(&self, path: &str) -> Result<&FileEntry> {
        self.ns
            .files
            .get(path)
            .ok_or_else(|| ClydeError::Dfs(format!("no such file: {path}")))
    }

    pub fn exists(&self, path: &str) -> bool {
        self.ns.files.contains_key(path)
    }

    pub fn block(&self, id: BlockId) -> Result<&BlockMeta> {
        self.ns
            .blocks
            .get(&id)
            .ok_or_else(|| ClydeError::Dfs(format!("no such block: {id:?}")))
    }

    pub fn block_mut(&mut self, id: BlockId) -> Result<&mut BlockMeta> {
        self.change()
            .blocks
            .get_mut(&id)
            .ok_or_else(|| ClydeError::Dfs(format!("no such block: {id:?}")))
    }

    /// Remove a file, returning its block ids so the datanodes can free them.
    pub fn delete(&mut self, path: &str) -> Result<Vec<BlockId>> {
        let ns = self.change();
        let entry = ns
            .files
            .remove(path)
            .ok_or_else(|| ClydeError::Dfs(format!("no such file: {path}")))?;
        for b in &entry.blocks {
            ns.blocks.remove(b);
        }
        Ok(entry.blocks)
    }

    /// Entries whose path starts with `prefix`, in lexicographic order.
    pub fn files_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a FileEntry> + 'a {
        self.ns
            .files
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(p, _)| p.starts_with(prefix))
            .map(|(_, e)| e)
    }

    /// Paths starting with `prefix`, in lexicographic order.
    pub fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.files_with_prefix(prefix)
            .map(|e| e.path.clone())
            .collect()
    }

    /// All block metas of all files, in block-id order (used by
    /// re-replication; sorted so recovery work never depends on hash order).
    pub fn all_blocks_mut(&mut self) -> impl Iterator<Item = &mut BlockMeta> {
        let mut all: Vec<&mut BlockMeta> = self.change().blocks.values_mut().collect();
        all.sort_by_key(|m| m.id.0);
        all.into_iter()
    }

    pub fn num_files(&self) -> usize {
        self.ns.files.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(path: &str, blocks: Vec<BlockId>) -> FileEntry {
        FileEntry {
            path: path.to_string(),
            len: 0,
            blocks,
            group: None,
        }
    }

    #[test]
    fn block_ids_are_unique() {
        let mut nn = Namenode::new();
        let a = nn.allocate_block(1, vec![NodeId(0)], 0);
        let b = nn.allocate_block(1, vec![NodeId(0)], 0);
        assert_ne!(a, b);
    }

    #[test]
    fn files_are_write_once() {
        let mut nn = Namenode::new();
        nn.commit_file(entry("/a", vec![])).unwrap();
        assert!(nn.commit_file(entry("/a", vec![])).is_err());
    }

    #[test]
    fn delete_frees_blocks() {
        let mut nn = Namenode::new();
        let b = nn.allocate_block(5, vec![NodeId(0)], 0);
        nn.commit_file(entry("/a", vec![b])).unwrap();
        let freed = nn.delete("/a").unwrap();
        assert_eq!(freed, vec![b]);
        assert!(nn.file("/a").is_err());
        assert!(nn.block(b).is_err());
        assert!(nn.delete("/a").is_err());
    }

    #[test]
    fn list_prefix_is_sorted_and_scoped() {
        let mut nn = Namenode::new();
        for p in ["/x/2", "/x/1", "/y/1", "/x/10"] {
            nn.commit_file(entry(p, vec![])).unwrap();
        }
        assert_eq!(nn.list_prefix("/x/"), vec!["/x/1", "/x/10", "/x/2"]);
        assert_eq!(nn.list_prefix("/z"), Vec::<String>::new());
        assert_eq!(nn.num_files(), 4);
    }

    #[test]
    fn every_mutator_advances_the_epoch_and_no_read_does() {
        let mut nn = Namenode::new();
        let mut last = nn.epoch();
        let mut advanced = |nn: &Namenode, what: &str| {
            assert!(nn.epoch() > last, "{what} must advance the epoch");
            last = nn.epoch();
        };
        let a = nn.allocate_block(5, vec![NodeId(0)], 0);
        advanced(&nn, "allocate_block");
        nn.commit_file(entry("/x/a", vec![a])).unwrap();
        advanced(&nn, "commit_file");
        nn.block_mut(a).unwrap().replicas.push(NodeId(1));
        advanced(&nn, "block_mut");
        assert_eq!(nn.all_blocks_mut().count(), 1);
        advanced(&nn, "all_blocks_mut");

        let before = nn.epoch();
        assert_eq!(nn.file("/x/a").unwrap().blocks, vec![a]);
        assert_eq!(nn.block(a).unwrap().replicas, vec![NodeId(0), NodeId(1)]);
        assert_eq!(nn.files_with_prefix("/x/").count(), 1);
        assert_eq!(nn.list_prefix("/x/"), vec!["/x/a"]);
        assert!(nn.exists("/x/a") && nn.num_files() == 1);
        assert!(nn.file("/missing").is_err() && nn.block(BlockId(99)).is_err());
        assert_eq!(nn.epoch(), before, "reads leave the epoch alone");

        nn.delete("/x/a").unwrap();
        advanced(&nn, "delete");
    }
}
