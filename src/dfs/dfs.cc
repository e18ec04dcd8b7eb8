#include "dfs/dfs.h"

#include <algorithm>
#include <cassert>

#include "common/serde.h"

namespace bmr::dfs {

namespace {

// Wire helpers for FileInfo.
void EncodeFileInfo(const FileInfo& info, ByteBuffer* out) {
  Encoder enc(out);
  enc.PutString(info.path);
  enc.PutVarint64(info.size);
  enc.PutVarint64(info.blocks.size());
  for (const auto& b : info.blocks) {
    enc.PutVarint64(b.block_id);
    enc.PutVarint64(b.size);
    enc.PutVarint64(b.replicas.size());
    for (int r : b.replicas) enc.PutVarint64(static_cast<uint64_t>(r));
  }
}

bool DecodeFileInfo(Slice in, FileInfo* info) {
  Decoder dec(in);
  uint64_t nblocks;
  if (!dec.GetString(&info->path) || !dec.GetVarint64(&info->size) ||
      !dec.GetVarint64(&nblocks)) {
    return false;
  }
  info->blocks.resize(nblocks);
  for (auto& b : info->blocks) {
    uint64_t nrep;
    if (!dec.GetVarint64(&b.block_id) || !dec.GetVarint64(&b.size) ||
        !dec.GetVarint64(&nrep)) {
      return false;
    }
    b.replicas.resize(nrep);
    for (auto& r : b.replicas) {
      uint64_t v;
      if (!dec.GetVarint64(&v)) return false;
      r = static_cast<int>(v);
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- NameNode

NameNode::NameNode(int num_nodes, int replication, uint64_t block_bytes)
    : num_nodes_(num_nodes),
      replication_(std::min(replication, num_nodes)),
      block_bytes_(block_bytes),
      dead_(num_nodes, false) {
  assert(replication_ >= 1);
}

Status NameNode::Create(const std::string& path) {
  MutexLock lock(mu_);
  if (files_.count(path)) {
    return Status::AlreadyExists("file exists: " + path);
  }
  FileInfo info;
  info.path = path;
  files_[path] = std::move(info);
  return Status::Ok();
}

int NameNode::PickNextReplica(int exclude_first,
                              const std::vector<int>& chosen) {
  // Round-robin over live nodes, skipping already-chosen replicas.
  for (int tries = 0; tries < num_nodes_; ++tries) {
    int candidate = rr_cursor_;
    rr_cursor_ = (rr_cursor_ + 1) % num_nodes_;
    if (candidate == exclude_first || dead_[candidate]) continue;
    if (std::find(chosen.begin(), chosen.end(), candidate) != chosen.end()) {
      continue;
    }
    return candidate;
  }
  return -1;
}

StatusOr<BlockLocation> NameNode::AddBlock(const std::string& path,
                                           int writer_node, uint64_t size) {
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);

  BlockLocation loc;
  loc.block_id = next_block_id_++;
  loc.size = size;
  // First replica local to the writer (the write-local policy); the
  // rest spread round-robin across live nodes.
  if (writer_node >= 0 && writer_node < num_nodes_ && !dead_[writer_node]) {
    loc.replicas.push_back(writer_node);
  }
  while (static_cast<int>(loc.replicas.size()) < replication_) {
    int next = PickNextReplica(/*exclude_first=*/-1, loc.replicas);
    if (next < 0) break;
    loc.replicas.push_back(next);
  }
  if (loc.replicas.empty()) {
    return Status::Unavailable("no live data nodes");
  }
  it->second.blocks.push_back(loc);
  it->second.size += size;
  return loc;
}

StatusOr<FileInfo> NameNode::GetFileInfo(const std::string& path) const {
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return it->second;
}

Status NameNode::Delete(const std::string& path) {
  MutexLock lock(mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::Ok();
}

std::vector<std::string> NameNode::ListFiles() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, info] : files_) out.push_back(path);
  std::sort(out.begin(), out.end());
  return out;
}

bool NameNode::Exists(const std::string& path) const {
  MutexLock lock(mu_);
  return files_.count(path) > 0;
}

void NameNode::MarkDead(int node) {
  MutexLock lock(mu_);
  if (node >= 0 && node < num_nodes_) dead_[node] = true;
}

std::vector<NameNode::RepairAction> NameNode::PlanRepairs(int dead) {
  MutexLock lock(mu_);
  std::vector<RepairAction> plan;
  for (auto& [path, info] : files_) {
    for (size_t b = 0; b < info.blocks.size(); ++b) {
      BlockLocation& block = info.blocks[b];
      auto it = std::find(block.replicas.begin(), block.replicas.end(), dead);
      if (it == block.replicas.end()) continue;
      RepairAction action;
      action.path = path;
      action.block_index = b;
      action.block_id = block.block_id;
      for (int replica : block.replicas) {
        if (replica != dead && !dead_[replica]) {
          action.source = replica;
          break;
        }
      }
      if (action.source < 0) continue;  // all replicas lost: unrecoverable
      action.target = PickNextReplica(/*exclude_first=*/-1, block.replicas);
      if (action.target < 0) continue;  // no spare live node
      plan.push_back(std::move(action));
    }
  }
  return plan;
}

Status NameNode::ConfirmRepair(const RepairAction& action, int dead) {
  MutexLock lock(mu_);
  auto it = files_.find(action.path);
  if (it == files_.end()) return Status::NotFound(action.path);
  if (action.block_index >= it->second.blocks.size()) {
    return Status::OutOfRange("block index");
  }
  BlockLocation& block = it->second.blocks[action.block_index];
  for (int& replica : block.replicas) {
    if (replica == dead) {
      replica = action.target;
      return Status::Ok();
    }
  }
  return Status::NotFound("dead replica already replaced");
}

// ---------------------------------------------------------------- DataNode

Status DataNode::PutBlock(uint64_t block_id, Slice data) {
  MutexLock lock(mu_);
  auto [it, inserted] = blocks_.emplace(block_id, data.ToString());
  if (!inserted) {
    return Status::AlreadyExists("block " + std::to_string(block_id));
  }
  stored_bytes_ += data.size();
  return Status::Ok();
}

Status DataNode::ReadBlock(uint64_t block_id, uint64_t offset, uint64_t len,
                           ByteBuffer* out) const {
  MutexLock lock(mu_);
  auto it = blocks_.find(block_id);
  if (it == blocks_.end()) {
    return Status::NotFound("block " + std::to_string(block_id));
  }
  const std::string& data = it->second;
  if (offset > data.size()) {
    return Status::OutOfRange("offset beyond block end");
  }
  uint64_t n = std::min<uint64_t>(len, data.size() - offset);
  out->Append(data.data() + offset, n);
  return Status::Ok();
}

uint64_t DataNode::stored_bytes() const {
  MutexLock lock(mu_);
  return stored_bytes_;
}

size_t DataNode::num_blocks() const {
  MutexLock lock(mu_);
  return blocks_.size();
}

// --------------------------------------------------------------------- Dfs

Dfs::Dfs(net::Transport* transport, int replication, uint64_t block_bytes)
    : transport_(transport),
      block_bytes_(block_bytes),
      node_dead_(transport->num_nodes(), false) {
  name_node_ = std::make_unique<NameNode>(transport->num_nodes(), replication,
                                          block_bytes);
  data_nodes_.resize(transport->num_nodes());
  for (int i = 0; i < transport->num_nodes(); ++i) {
    data_nodes_[i] = std::make_unique<DataNode>(i);
    RegisterDataNodeService(i);
  }
  RegisterNameNodeService();
}

void Dfs::KillDataNode(int node) {
  name_node_->MarkDead(node);
  {
    MutexLock lock(mu_);
    node_dead_[node] = true;
  }
  // Unregister only this node's dn.* handlers by re-registering a
  // failing stub (Transport::KillNode would also drop nn.* on node 0).
  auto dead = [](Slice, ByteBuffer*) {
    return Status::Unavailable("data node is down");
  };
  transport_->Register(node, "dn.put", dead);
  transport_->Register(node, "dn.read", dead);

  // HDFS-style repair: copy every block the node held from a surviving
  // replica onto a live node, restoring the replication factor.  The
  // copies run without dfs.control held; only the final tally takes it.
  uint64_t repaired = 0;
  for (const auto& action : name_node_->PlanRepairs(node)) {
    DataNode* source = data_nodes_[action.source].get();
    DataNode* target = data_nodes_[action.target].get();
    ByteBuffer data;
    if (!source->ReadBlock(action.block_id, 0, UINT64_MAX, &data).ok()) {
      continue;
    }
    if (!target->PutBlock(action.block_id, data.AsSlice()).ok()) continue;
    if (name_node_->ConfirmRepair(action, node).ok()) ++repaired;
  }
  MutexLock lock(mu_);
  blocks_re_replicated_ += repaired;
}

void Dfs::RegisterNameNodeService() {
  NameNode* nn = name_node_.get();

  transport_->Register(0, "nn.create", [nn](Slice req, ByteBuffer*) {
    Decoder dec(req);
    std::string path;
    if (!dec.GetString(&path)) return Status::DataLoss("bad nn.create req");
    return nn->Create(path);
  });

  transport_->Register(0, "nn.add_block", [nn](Slice req, ByteBuffer* resp) {
    Decoder dec(req);
    std::string path;
    uint64_t writer, size;
    if (!dec.GetString(&path) || !dec.GetVarint64(&writer) ||
        !dec.GetVarint64(&size)) {
      return Status::DataLoss("bad nn.add_block req");
    }
    auto loc = nn->AddBlock(path, static_cast<int>(writer), size);
    if (!loc.ok()) return loc.status();
    Encoder enc(resp);
    enc.PutVarint64(loc->block_id);
    enc.PutVarint64(loc->size);
    enc.PutVarint64(loc->replicas.size());
    for (int r : loc->replicas) enc.PutVarint64(static_cast<uint64_t>(r));
    return Status::Ok();
  });

  transport_->Register(0, "nn.get_file_info", [nn](Slice req, ByteBuffer* resp) {
    Decoder dec(req);
    std::string path;
    if (!dec.GetString(&path)) return Status::DataLoss("bad req");
    auto info = nn->GetFileInfo(path);
    if (!info.ok()) return info.status();
    EncodeFileInfo(*info, resp);
    return Status::Ok();
  });

  transport_->Register(0, "nn.delete", [nn](Slice req, ByteBuffer*) {
    Decoder dec(req);
    std::string path;
    if (!dec.GetString(&path)) return Status::DataLoss("bad req");
    return nn->Delete(path);
  });

  transport_->Register(0, "nn.list", [nn](Slice req, ByteBuffer* resp) {
    Decoder dec(req);
    std::string prefix;
    if (!dec.GetString(&prefix)) return Status::DataLoss("bad req");
    Encoder enc(resp);
    std::vector<std::string> all = nn->ListFiles();
    std::vector<std::string> matched;
    for (const auto& path : all) {
      if (path.compare(0, prefix.size(), prefix) == 0) {
        matched.push_back(path);
      }
    }
    enc.PutVarint64(matched.size());
    for (const auto& path : matched) enc.PutString(path);
    return Status::Ok();
  });

  transport_->Register(0, "nn.exists", [nn](Slice req, ByteBuffer* resp) {
    Decoder dec(req);
    std::string path;
    if (!dec.GetString(&path)) return Status::DataLoss("bad req");
    Encoder enc(resp);
    enc.PutU8(nn->Exists(path) ? 1 : 0);
    return Status::Ok();
  });
}

void Dfs::RegisterDataNodeService(int node) {
  DataNode* dn = data_nodes_[node].get();

  transport_->Register(node, "dn.put", [dn](Slice req, ByteBuffer*) {
    Decoder dec(req);
    uint64_t block_id;
    Slice data;
    if (!dec.GetVarint64(&block_id) || !dec.GetString(&data)) {
      return Status::DataLoss("bad dn.put req");
    }
    return dn->PutBlock(block_id, data);
  });

  transport_->Register(node, "dn.read", [dn](Slice req, ByteBuffer* resp) {
    Decoder dec(req);
    uint64_t block_id, offset, len;
    if (!dec.GetVarint64(&block_id) || !dec.GetVarint64(&offset) ||
        !dec.GetVarint64(&len)) {
      return Status::DataLoss("bad dn.read req");
    }
    return dn->ReadBlock(block_id, offset, len, resp);
  });
}

// --------------------------------------------------------------- DfsClient

DfsClient::Writer::Writer(DfsClient* client, std::string path)
    : client_(client), path_(std::move(path)) {}

Status DfsClient::Writer::Append(Slice data) {
  if (closed_) return Status::FailedPrecondition("writer closed");
  buffer_.Append(data);
  bytes_written_ += data.size();
  uint64_t block = client_->dfs_->block_bytes();
  while (buffer_.size() >= block) {
    BMR_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::Ok();
}

Status DfsClient::Writer::FlushBlock() {
  uint64_t block = client_->dfs_->block_bytes();
  uint64_t n = std::min<uint64_t>(buffer_.size(), block);
  BMR_RETURN_IF_ERROR(
      client_->WriteBlock(path_, Slice(buffer_.data(), n)));
  // Shift the remainder down.  Block-sized memmove at most once per
  // block write; acceptable for the substrate.
  std::memmove(buffer_.data(), buffer_.data() + n, buffer_.size() - n);
  buffer_.Resize(buffer_.size() - n);
  return Status::Ok();
}

Status DfsClient::Writer::Close() {
  if (closed_) return Status::Ok();
  while (!buffer_.empty()) {
    BMR_RETURN_IF_ERROR(FlushBlock());
  }
  closed_ = true;
  return Status::Ok();
}

StatusOr<std::unique_ptr<DfsClient::Writer>> DfsClient::Create(
    const std::string& path) {
  ByteBuffer req;
  Encoder enc(&req);
  enc.PutString(path);
  ByteBuffer resp;
  BMR_RETURN_IF_ERROR(
      dfs_->transport()->Call(node_id_, 0, "nn.create", req.AsSlice(), &resp));
  return std::make_unique<Writer>(this, path);
}

Status DfsClient::WriteBlock(const std::string& path, Slice data) {
  // Ask the NameNode for a placement, then push to every replica.
  ByteBuffer req;
  Encoder enc(&req);
  enc.PutString(path);
  enc.PutVarint64(static_cast<uint64_t>(node_id_));
  enc.PutVarint64(data.size());
  ByteBuffer resp;
  BMR_RETURN_IF_ERROR(
      dfs_->transport()->Call(node_id_, 0, "nn.add_block", req.AsSlice(), &resp));

  Decoder dec(resp.AsSlice());
  uint64_t block_id, size, nrep;
  if (!dec.GetVarint64(&block_id) || !dec.GetVarint64(&size) ||
      !dec.GetVarint64(&nrep)) {
    return Status::DataLoss("bad nn.add_block resp");
  }
  for (uint64_t i = 0; i < nrep; ++i) {
    uint64_t replica;
    if (!dec.GetVarint64(&replica)) return Status::DataLoss("bad resp");
    ByteBuffer put_req;
    Encoder put_enc(&put_req);
    put_enc.PutVarint64(block_id);
    put_enc.PutString(data);
    ByteBuffer put_resp;
    BMR_RETURN_IF_ERROR(dfs_->transport()->Call(node_id_,
                                             static_cast<int>(replica),
                                             "dn.put", put_req.AsSlice(),
                                             &put_resp));
  }
  return Status::Ok();
}

StatusOr<FileInfo> DfsClient::GetFileInfo(const std::string& path) {
  ByteBuffer req;
  Encoder enc(&req);
  enc.PutString(path);
  ByteBuffer resp;
  BMR_RETURN_IF_ERROR(dfs_->transport()->Call(node_id_, 0, "nn.get_file_info",
                                           req.AsSlice(), &resp));
  FileInfo info;
  if (!DecodeFileInfo(resp.AsSlice(), &info)) {
    return Status::DataLoss("bad file info");
  }
  return info;
}

Status DfsClient::Delete(const std::string& path) {
  ByteBuffer req;
  Encoder enc(&req);
  enc.PutString(path);
  ByteBuffer resp;
  return dfs_->transport()->Call(node_id_, 0, "nn.delete", req.AsSlice(), &resp);
}

bool DfsClient::Exists(const std::string& path) {
  ByteBuffer req;
  Encoder enc(&req);
  enc.PutString(path);
  ByteBuffer resp;
  Status st =
      dfs_->transport()->Call(node_id_, 0, "nn.exists", req.AsSlice(), &resp);
  if (!st.ok() || resp.size() != 1) return false;
  return resp.data()[0] == 1;
}

StatusOr<std::vector<std::string>> DfsClient::ListFiles(
    const std::string& prefix) {
  ByteBuffer req;
  Encoder enc(&req);
  enc.PutString(prefix);
  ByteBuffer resp;
  BMR_RETURN_IF_ERROR(
      dfs_->transport()->Call(node_id_, 0, "nn.list", req.AsSlice(), &resp));
  Decoder dec(resp.AsSlice());
  uint64_t n;
  if (!dec.GetVarint64(&n)) return Status::DataLoss("bad nn.list resp");
  std::vector<std::string> files(n);
  for (auto& f : files) {
    if (!dec.GetString(&f)) return Status::DataLoss("bad nn.list resp");
  }
  return files;
}

Status DfsClient::ReadBlockRange(const BlockLocation& loc, uint64_t offset,
                                 uint64_t len, ByteBuffer* out) {
  // Prefer a local replica, then fail over in placement order.
  std::vector<int> order = loc.replicas;
  auto local =
      std::find(order.begin(), order.end(), node_id_);
  if (local != order.end()) {
    std::iter_swap(order.begin(), local);
  }
  Status last = Status::Unavailable("no replicas");
  for (int replica : order) {
    ByteBuffer req;
    Encoder enc(&req);
    enc.PutVarint64(loc.block_id);
    enc.PutVarint64(offset);
    enc.PutVarint64(len);
    ByteBuffer resp;
    last = dfs_->transport()->Call(node_id_, replica, "dn.read", req.AsSlice(),
                                &resp);
    if (last.ok()) {
      out->Append(resp.AsSlice());
      return Status::Ok();
    }
  }
  return last;
}

Status DfsClient::Pread(const std::string& path, uint64_t offset, uint64_t len,
                        ByteBuffer* out) {
  BMR_ASSIGN_OR_RETURN(FileInfo info, GetFileInfo(path));
  if (offset >= info.size) return Status::Ok();  // read past EOF: 0 bytes
  len = std::min<uint64_t>(len, info.size - offset);

  uint64_t block_start = 0;
  for (const auto& block : info.blocks) {
    uint64_t block_end = block_start + block.size;
    if (len == 0) break;
    if (offset < block_end) {
      uint64_t in_block_off = offset - block_start;
      uint64_t n = std::min<uint64_t>(len, block.size - in_block_off);
      BMR_RETURN_IF_ERROR(ReadBlockRange(block, in_block_off, n, out));
      offset += n;
      len -= n;
    }
    block_start = block_end;
  }
  if (len > 0) {
    return Status::DataLoss("file metadata inconsistent with size");
  }
  return Status::Ok();
}

StatusOr<std::string> DfsClient::ReadAll(const std::string& path) {
  BMR_ASSIGN_OR_RETURN(FileInfo info, GetFileInfo(path));
  ByteBuffer out;
  out.Reserve(info.size);
  BMR_RETURN_IF_ERROR(Pread(path, 0, info.size, &out));
  return out.ToString();
}

Status DfsClient::WriteFile(const std::string& path, Slice contents) {
  BMR_ASSIGN_OR_RETURN(std::unique_ptr<Writer> writer, Create(path));
  BMR_RETURN_IF_ERROR(writer->Append(contents));
  return writer->Close();
}

}  // namespace bmr::dfs
