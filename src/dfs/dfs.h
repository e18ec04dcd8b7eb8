// Distributed file system substrate (HDFS stand-in).
//
// Files are split into fixed-size blocks.  A NameNode (on the master)
// keeps path → block metadata and picks replica placements with the
// write-local-first policy the paper highlights; DataNodes (one per
// slave) store block bytes and serve ranged reads over the RPC transport.
// A DfsClient per node provides create/append/close, positional reads
// and replica failover.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace bmr::dfs {

struct BlockLocation {
  uint64_t block_id = 0;
  uint64_t size = 0;
  std::vector<int> replicas;  // data node ids, placement order
};

struct FileInfo {
  std::string path;
  uint64_t size = 0;
  std::vector<BlockLocation> blocks;
};

/// NameNode: file namespace and block placement.  Lives behind RPC
/// methods "nn.*" on the master node; the typed API below is what the
/// client stubs call into after decoding.
class NameNode {
 public:
  NameNode(int num_nodes, int replication, uint64_t block_bytes);

  [[nodiscard]] Status Create(const std::string& path) BMR_EXCLUDES(mu_);
  /// Allocate the next block of `path`, placing `replication` replicas
  /// starting at the writer's node (write-local policy).
  [[nodiscard]] StatusOr<BlockLocation> AddBlock(const std::string& path,
                                                 int writer_node,
                                                 uint64_t size)
      BMR_EXCLUDES(mu_);
  [[nodiscard]] StatusOr<FileInfo> GetFileInfo(const std::string& path) const
      BMR_EXCLUDES(mu_);
  [[nodiscard]] Status Delete(const std::string& path) BMR_EXCLUDES(mu_);
  std::vector<std::string> ListFiles() const BMR_EXCLUDES(mu_);
  bool Exists(const std::string& path) const BMR_EXCLUDES(mu_);

  uint64_t block_bytes() const { return block_bytes_; }
  int replication() const { return replication_; }

  /// Exclude a node from future placements (it died).
  void MarkDead(int node) BMR_EXCLUDES(mu_);

  /// One block copy needed to restore the replication factor after a
  /// node loss.
  struct RepairAction {
    std::string path;
    size_t block_index = 0;
    uint64_t block_id = 0;
    int source = -1;  // a surviving replica
    int target = -1;  // chosen live node
  };

  /// Plan re-replication for every block that lost a replica on `dead`,
  /// reserving targets; call ConfirmRepair once the copy succeeded.
  std::vector<RepairAction> PlanRepairs(int dead) BMR_EXCLUDES(mu_);

  /// Record the new replica in the block's metadata (replacing the
  /// dead node's entry).
  [[nodiscard]] Status ConfirmRepair(const RepairAction& action, int dead)
      BMR_EXCLUDES(mu_);

 private:
  int PickNextReplica(int exclude_first, const std::vector<int>& chosen)
      BMR_REQUIRES(mu_);

  BMR_ACQUIRED_AFTER("dfs.control")
  mutable OrderedMutex mu_{"dfs.namenode"};
  int num_nodes_;
  int replication_;
  uint64_t block_bytes_;
  uint64_t next_block_id_ BMR_GUARDED_BY(mu_) = 1;
  int rr_cursor_ BMR_GUARDED_BY(mu_) = 0;
  std::vector<bool> dead_ BMR_GUARDED_BY(mu_);
  std::unordered_map<std::string, FileInfo> files_ BMR_GUARDED_BY(mu_);
};

/// DataNode: in-memory block store for one simulated machine, plus the
/// RPC service wrapper.
class DataNode {
 public:
  explicit DataNode(int node_id) : node_id_(node_id) {}

  [[nodiscard]] Status PutBlock(uint64_t block_id, Slice data)
      BMR_EXCLUDES(mu_);
  [[nodiscard]] Status ReadBlock(uint64_t block_id, uint64_t offset,
                                 uint64_t len, ByteBuffer* out) const
      BMR_EXCLUDES(mu_);
  uint64_t stored_bytes() const BMR_EXCLUDES(mu_);
  size_t num_blocks() const BMR_EXCLUDES(mu_);

  int node_id() const { return node_id_; }

 private:
  int node_id_;
  BMR_ACQUIRED_AFTER("dfs.control")
  mutable OrderedMutex mu_{"dfs.datanode"};
  std::unordered_map<uint64_t, std::string> blocks_ BMR_GUARDED_BY(mu_);
  uint64_t stored_bytes_ BMR_GUARDED_BY(mu_) = 0;
};

/// The whole DFS: NameNode + DataNodes wired onto a net::Transport.
/// Master node id 0 hosts the NameNode service.
class Dfs {
 public:
  /// Registers nn.* on node 0 and dn.* on every node.
  Dfs(net::Transport* transport, int replication, uint64_t block_bytes);

  net::Transport* transport() { return transport_; }
  uint64_t block_bytes() const { return block_bytes_; }

  /// Simulate a machine loss: drop its DataNode service and blocks and
  /// exclude it from future placement.  Surviving replicas are then
  /// re-replicated onto live nodes (HDFS-style repair), so a second
  /// failure does not lose data.  Safe to call concurrently with jobs
  /// in flight (and with another KillDataNode).
  void KillDataNode(int node) BMR_EXCLUDES(mu_);

  /// Blocks copied by KillDataNode repair passes so far.
  uint64_t blocks_re_replicated() const BMR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return blocks_re_replicated_;
  }

  // Direct (non-RPC) access for tests and for the master-side planner.
  NameNode* name_node() { return name_node_.get(); }
  DataNode* data_node(int node) { return data_nodes_[node].get(); }

 private:
  void RegisterNameNodeService();
  void RegisterDataNodeService(int node);

  net::Transport* transport_;
  uint64_t block_bytes_;
  std::unique_ptr<NameNode> name_node_;
  std::vector<std::unique_ptr<DataNode>> data_nodes_;
  // Guards the failure bookkeeping below; the NameNode and DataNodes
  // have their own locks and are never called with mu_ held beyond
  // the repair loop (dfs.control -> dfs.namenode/dfs.datanode only).
  mutable OrderedMutex mu_{"dfs.control"};
  std::vector<bool> node_dead_ BMR_GUARDED_BY(mu_);
  uint64_t blocks_re_replicated_ BMR_GUARDED_BY(mu_) = 0;
};

/// Per-node client stub.  All traffic goes through the RPC transport so it
/// is metered like any other remote I/O.
class DfsClient {
 public:
  DfsClient(Dfs* dfs, int node_id) : dfs_(dfs), node_id_(node_id) {}

  /// Streaming writer; buffers into blocks and replicates on Close/roll.
  class Writer {
   public:
    Writer(DfsClient* client, std::string path);
    [[nodiscard]] Status Append(Slice data);
    [[nodiscard]] Status Close();
    uint64_t bytes_written() const { return bytes_written_; }

   private:
    [[nodiscard]] Status FlushBlock();

    DfsClient* client_;
    std::string path_;
    ByteBuffer buffer_;
    uint64_t bytes_written_ = 0;
    bool closed_ = false;
  };

  [[nodiscard]] StatusOr<std::unique_ptr<Writer>> Create(
      const std::string& path);
  [[nodiscard]] StatusOr<FileInfo> GetFileInfo(const std::string& path);
  [[nodiscard]] Status Delete(const std::string& path);
  bool Exists(const std::string& path);

  /// All file paths starting with `prefix`, sorted ("" = everything).
  [[nodiscard]] StatusOr<std::vector<std::string>> ListFiles(
      const std::string& prefix);

  /// Positional read of [offset, offset+len) into out (may return fewer
  /// bytes at EOF).  Prefers a local replica; fails over across replicas.
  [[nodiscard]] Status Pread(const std::string& path, uint64_t offset,
                             uint64_t len, ByteBuffer* out);

  /// Convenience: read a whole (small) file into a string.
  [[nodiscard]] StatusOr<std::string> ReadAll(const std::string& path);

  /// Write a whole buffer as a new file.
  [[nodiscard]] Status WriteFile(const std::string& path, Slice contents);

  int node_id() const { return node_id_; }
  Dfs* dfs() { return dfs_; }

 private:
  friend class Writer;
  [[nodiscard]] Status WriteBlock(const std::string& path, Slice data);
  [[nodiscard]] Status ReadBlockRange(const BlockLocation& loc,
                                      uint64_t offset, uint64_t len,
                                      ByteBuffer* out);

  Dfs* dfs_;
  int node_id_;
};

}  // namespace bmr::dfs
