#include "proto/messages.hpp"

namespace ns::proto {

namespace {

void encode_endpoint(serial::Encoder& enc, const net::Endpoint& ep) {
  enc.put_string(ep.host);
  enc.put_u16(ep.port);
}

Result<net::Endpoint> decode_endpoint(serial::Decoder& dec) {
  net::Endpoint ep;
  auto host = dec.get_string(256);
  if (!host.ok()) return host.error();
  ep.host = std::move(host).value();
  auto port = dec.get_u16();
  if (!port.ok()) return port.error();
  ep.port = port.value();
  return ep;
}

void encode_specs(serial::Encoder& enc, const std::vector<dsl::ProblemSpec>& specs) {
  enc.put_u32(static_cast<std::uint32_t>(specs.size()));
  for (const auto& s : specs) s.encode(enc);
}

Result<std::vector<dsl::ProblemSpec>> decode_specs(serial::Decoder& dec) {
  auto count = dec.get_u32();
  if (!count.ok()) return count.error();
  if (count.value() > 65536) {
    return make_error(ErrorCode::kProtocol, "too many problem specs");
  }
  std::vector<dsl::ProblemSpec> specs;
  specs.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto spec = dsl::ProblemSpec::decode(dec);
    if (!spec.ok()) return spec.error();
    specs.push_back(std::move(spec).value());
  }
  return specs;
}

}  // namespace

void RegisterServer::encode(serial::Encoder& enc) const {
  enc.put_string(server_name);
  encode_endpoint(enc, endpoint);
  enc.put_f64(mflops);
  encode_specs(enc, problems);
  enc.put_u64(incarnation);
}

Result<RegisterServer> RegisterServer::decode(serial::Decoder& dec) {
  RegisterServer msg;
  auto name = dec.get_string(256);
  if (!name.ok()) return name.error();
  msg.server_name = std::move(name).value();
  auto ep = decode_endpoint(dec);
  if (!ep.ok()) return ep.error();
  msg.endpoint = std::move(ep).value();
  auto mflops = dec.get_f64();
  if (!mflops.ok()) return mflops.error();
  msg.mflops = mflops.value();
  auto specs = decode_specs(dec);
  if (!specs.ok()) return specs.error();
  msg.problems = std::move(specs).value();
  auto inc = dec.get_u64();
  if (!inc.ok()) return inc.error();
  msg.incarnation = inc.value();
  return msg;
}

void RegisterAck::encode(serial::Encoder& enc) const {
  enc.put_u32(server_id);
  enc.put_u32(static_cast<std::uint32_t>(peer_agents.size()));
  for (const auto& ep : peer_agents) encode_endpoint(enc, ep);
}

Result<RegisterAck> RegisterAck::decode(serial::Decoder& dec) {
  RegisterAck msg;
  auto id = dec.get_u32();
  if (!id.ok()) return id.error();
  msg.server_id = id.value();
  auto count = dec.get_u32();
  if (!count.ok()) return count.error();
  if (count.value() > 1024) {
    return make_error(ErrorCode::kProtocol, "too many peer agents");
  }
  msg.peer_agents.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto ep = decode_endpoint(dec);
    if (!ep.ok()) return ep.error();
    msg.peer_agents.push_back(std::move(ep).value());
  }
  return msg;
}

void WorkloadReport::encode(serial::Encoder& enc) const {
  enc.put_u32(server_id);
  enc.put_f64(workload);
  enc.put_u64(completed);
  enc.put_f64(sojourn_p95_s);
  enc.put_f64(free_slots);
  enc.put_i32(durable);
  enc.put_f64(mem_free_bytes);
  enc.put_i32(spill_active);
}

Result<WorkloadReport> WorkloadReport::decode(serial::Decoder& dec) {
  WorkloadReport msg;
  auto id = dec.get_u32();
  if (!id.ok()) return id.error();
  msg.server_id = id.value();
  auto load = dec.get_f64();
  if (!load.ok()) return load.error();
  msg.workload = load.value();
  auto completed = dec.get_u64();
  if (!completed.ok()) return completed.error();
  msg.completed = completed.value();
  // Queue-pressure fields are a trailing addition: a report from an older
  // server simply ends here and keeps the "unknown" defaults.
  if (dec.exhausted()) return msg;
  auto sojourn = dec.get_f64();
  if (!sojourn.ok()) return sojourn.error();
  msg.sojourn_p95_s = sojourn.value();
  auto slots = dec.get_f64();
  if (!slots.ok()) return slots.error();
  msg.free_slots = slots.value();
  // Durability health is a later trailing addition still.
  if (dec.exhausted()) return msg;
  auto durable = dec.get_i32();
  if (!durable.ok()) return durable.error();
  msg.durable = durable.value();
  // Memory-pressure fields are the latest trailing addition.
  if (dec.exhausted()) return msg;
  auto mem_free = dec.get_f64();
  if (!mem_free.ok()) return mem_free.error();
  msg.mem_free_bytes = mem_free.value();
  auto spill = dec.get_i32();
  if (!spill.ok()) return spill.error();
  msg.spill_active = spill.value();
  return msg;
}

void Query::encode(serial::Encoder& enc) const {
  enc.put_string(problem);
  enc.put_u64(input_bytes);
  enc.put_u64(output_bytes);
  enc.put_u64(size_hint);
  enc.put_u32(max_candidates);
  enc.put_u64(trace_id);
  if (client_id != 0) enc.put_u64(client_id);
}

Result<Query> Query::decode(serial::Decoder& dec) {
  Query msg;
  auto problem = dec.get_string(256);
  if (!problem.ok()) return problem.error();
  msg.problem = std::move(problem).value();
  auto in_bytes = dec.get_u64();
  if (!in_bytes.ok()) return in_bytes.error();
  msg.input_bytes = in_bytes.value();
  auto out_bytes = dec.get_u64();
  if (!out_bytes.ok()) return out_bytes.error();
  msg.output_bytes = out_bytes.value();
  auto hint = dec.get_u64();
  if (!hint.ok()) return hint.error();
  msg.size_hint = hint.value();
  auto max_c = dec.get_u32();
  if (!max_c.ok()) return max_c.error();
  msg.max_candidates = max_c.value();
  auto trace = dec.get_u64();
  if (!trace.ok()) return trace.error();
  msg.trace_id = trace.value();
  // client_id is a trailing addition; queries from older clients end here.
  if (dec.exhausted()) return msg;
  auto client = dec.get_u64();
  if (!client.ok()) return client.error();
  msg.client_id = client.value();
  return msg;
}

void ServerCandidate::encode(serial::Encoder& enc) const {
  enc.put_u32(server_id);
  enc.put_string(server_name);
  encode_endpoint(enc, endpoint);
  enc.put_f64(predicted_seconds);
}

Result<ServerCandidate> ServerCandidate::decode(serial::Decoder& dec) {
  ServerCandidate msg;
  auto id = dec.get_u32();
  if (!id.ok()) return id.error();
  msg.server_id = id.value();
  auto name = dec.get_string(256);
  if (!name.ok()) return name.error();
  msg.server_name = std::move(name).value();
  auto ep = decode_endpoint(dec);
  if (!ep.ok()) return ep.error();
  msg.endpoint = std::move(ep).value();
  auto pred = dec.get_f64();
  if (!pred.ok()) return pred.error();
  msg.predicted_seconds = pred.value();
  return msg;
}

void ServerList::encode(serial::Encoder& enc) const {
  enc.put_u32(static_cast<std::uint32_t>(candidates.size()));
  for (const auto& c : candidates) c.encode(enc);
  enc.put_f64(schedule_seconds);
  if (!has_lease()) return;
  enc.put_f64(lease_seconds);
  enc.put_u32(lease_calls);
  enc.put_u32(lease_slots);
}

Result<ServerList> ServerList::decode(serial::Decoder& dec) {
  auto count = dec.get_u32();
  if (!count.ok()) return count.error();
  if (count.value() > 65536) {
    return make_error(ErrorCode::kProtocol, "too many candidates");
  }
  ServerList msg;
  msg.candidates.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto c = ServerCandidate::decode(dec);
    if (!c.ok()) return c.error();
    msg.candidates.push_back(std::move(c).value());
  }
  auto sched = dec.get_f64();
  if (!sched.ok()) return sched.error();
  msg.schedule_seconds = sched.value();
  // The lease is a trailing addition: a list from a pre-lease agent (or a
  // lease-less one) ends here and means "ask again next call".
  if (dec.exhausted()) return msg;
  auto lease_s = dec.get_f64();
  if (!lease_s.ok()) return lease_s.error();
  msg.lease_seconds = lease_s.value();
  auto calls = dec.get_u32();
  if (!calls.ok()) return calls.error();
  msg.lease_calls = calls.value();
  auto slots = dec.get_u32();
  if (!slots.ok()) return slots.error();
  msg.lease_slots = slots.value();
  return msg;
}

void FailureReport::encode(serial::Encoder& enc) const {
  enc.put_u32(server_id);
  enc.put_u16(error_code);
}

Result<FailureReport> FailureReport::decode(serial::Decoder& dec) {
  FailureReport msg;
  auto id = dec.get_u32();
  if (!id.ok()) return id.error();
  msg.server_id = id.value();
  auto code = dec.get_u16();
  if (!code.ok()) return code.error();
  msg.error_code = code.value();
  return msg;
}

void MetricsReport::encode(serial::Encoder& enc) const {
  enc.put_u32(server_id);
  enc.put_u64(bytes);
  enc.put_f64(transfer_seconds);
}

Result<MetricsReport> MetricsReport::decode(serial::Decoder& dec) {
  MetricsReport msg;
  auto id = dec.get_u32();
  if (!id.ok()) return id.error();
  msg.server_id = id.value();
  auto bytes = dec.get_u64();
  if (!bytes.ok()) return bytes.error();
  msg.bytes = bytes.value();
  auto secs = dec.get_f64();
  if (!secs.ok()) return secs.error();
  msg.transfer_seconds = secs.value();
  return msg;
}

void ProblemCatalog::encode(serial::Encoder& enc) const { encode_specs(enc, problems); }

Result<ProblemCatalog> ProblemCatalog::decode(serial::Decoder& dec) {
  ProblemCatalog msg;
  auto specs = decode_specs(dec);
  if (!specs.ok()) return specs.error();
  msg.problems = std::move(specs).value();
  return msg;
}

void SolveRequest::encode(serial::Encoder& enc,
                          const std::vector<dsl::DataObject>& with_args) const {
  // Reserved to the byte, so the arrays are copied once and the trailing
  // fields never reallocate the buffer.
  enc.reserve(enc.size() + 8 + 4 + problem.size() + dsl::args_byte_size(with_args) + 8 + 8 +
              8 + 1);
  enc.put_u64(request_id);
  enc.put_string(problem);
  dsl::encode_args(enc, with_args);
  enc.put_f64(deadline_s);
  enc.put_u64(trace_id);
  enc.put_u64(client_id);
  enc.put_bool(require_durable);
}

Result<SolveRequest> SolveRequest::decode(serial::Decoder& dec) {
  SolveRequest msg;
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  auto problem = dec.get_string(256);
  if (!problem.ok()) return problem.error();
  msg.problem = std::move(problem).value();
  auto args = dsl::decode_args(dec);
  if (!args.ok()) return args.error();
  msg.args = std::move(args).value();
  auto deadline = dec.get_f64();
  if (!deadline.ok()) return deadline.error();
  msg.deadline_s = deadline.value();
  auto trace = dec.get_u64();
  if (!trace.ok()) return trace.error();
  msg.trace_id = trace.value();
  // client_id is a trailing addition; requests from older clients end here
  // and stay anonymous (0 = exempt from per-client quotas).
  if (dec.exhausted()) return msg;
  auto client = dec.get_u64();
  if (!client.ok()) return client.error();
  msg.client_id = client.value();
  // require_durable is a later trailing addition still.
  if (dec.exhausted()) return msg;
  auto durable = dec.get_u8();
  if (!durable.ok()) return durable.error();
  if (durable.value() > 1) return make_error(ErrorCode::kProtocol, "bad durable flag");
  msg.require_durable = durable.value() != 0;
  return msg;
}

void SolveResult::encode(serial::Encoder& enc) const {
  enc.reserve(enc.size() + 8 + 2 + 4 + error_message.size() + dsl::args_byte_size(outputs) +
              8 + 8 + 8 + 4 + migrated_host.size() + 2);
  enc.put_u64(request_id);
  enc.put_u16(error_code);
  enc.put_string(error_message);
  dsl::encode_args(enc, outputs);
  enc.put_f64(exec_seconds);
  enc.put_f64(queue_seconds);
  enc.put_f64(retry_after_s);
  enc.put_string(migrated_host);
  enc.put_u16(migrated_port);
}

Result<SolveResult> SolveResult::decode(serial::Decoder& dec) {
  SolveResult msg;
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  auto code = dec.get_u16();
  if (!code.ok()) return code.error();
  msg.error_code = code.value();
  auto err = dec.get_string();
  if (!err.ok()) return err.error();
  msg.error_message = std::move(err).value();
  auto outputs = dsl::decode_args(dec);
  if (!outputs.ok()) return outputs.error();
  msg.outputs = std::move(outputs).value();
  auto secs = dec.get_f64();
  if (!secs.ok()) return secs.error();
  msg.exec_seconds = secs.value();
  auto queue = dec.get_f64();
  if (!queue.ok()) return queue.error();
  msg.queue_seconds = queue.value();
  // retry_after_s is a trailing addition; results from older servers end
  // here and carry no backpressure hint.
  if (dec.exhausted()) return msg;
  auto retry_after = dec.get_f64();
  if (!retry_after.ok()) return retry_after.error();
  msg.retry_after_s = retry_after.value();
  // migrated_host/port is a further trailing addition (drain-time job
  // migration); results from older servers end here.
  if (dec.exhausted()) return msg;
  auto mhost = dec.get_string(256);
  if (!mhost.ok()) return mhost.error();
  msg.migrated_host = std::move(mhost).value();
  auto mport = dec.get_u16();
  if (!mport.ok()) return mport.error();
  msg.migrated_port = mport.value();
  return msg;
}

void CancelRequest::encode(serial::Encoder& enc) const { enc.put_u64(request_id); }

Result<CancelRequest> CancelRequest::decode(serial::Decoder& dec) {
  CancelRequest msg;
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  return msg;
}

void CancelAck::encode(serial::Encoder& enc) const {
  enc.put_u64(request_id);
  enc.put_u8(static_cast<std::uint8_t>(outcome));
}

Result<CancelAck> CancelAck::decode(serial::Decoder& dec) {
  CancelAck msg;
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  auto outcome = dec.get_u8();
  if (!outcome.ok()) return outcome.error();
  if (outcome.value() > static_cast<std::uint8_t>(CancelOutcome::kRunning)) {
    return make_error(ErrorCode::kProtocol, "bad cancel outcome");
  }
  msg.outcome = static_cast<CancelOutcome>(outcome.value());
  return msg;
}

void DrainRequest::encode(serial::Encoder& enc) const { enc.put_f64(deadline_s); }

Result<DrainRequest> DrainRequest::decode(serial::Decoder& dec) {
  DrainRequest msg;
  auto deadline = dec.get_f64();
  if (!deadline.ok()) return deadline.error();
  msg.deadline_s = deadline.value();
  return msg;
}

void DrainAck::encode(serial::Encoder& enc) const {
  enc.put_u8(started ? 1 : 0);
  enc.put_u32(running);
  enc.put_u32(queued);
}

Result<DrainAck> DrainAck::decode(serial::Decoder& dec) {
  DrainAck msg;
  auto started = dec.get_u8();
  if (!started.ok()) return started.error();
  if (started.value() > 1) return make_error(ErrorCode::kProtocol, "bad drain ack flag");
  msg.started = started.value() != 0;
  auto running = dec.get_u32();
  if (!running.ok()) return running.error();
  msg.running = running.value();
  auto queued = dec.get_u32();
  if (!queued.ok()) return queued.error();
  msg.queued = queued.value();
  return msg;
}

void DeregisterServer::encode(serial::Encoder& enc) const { enc.put_u32(server_id); }

Result<DeregisterServer> DeregisterServer::decode(serial::Decoder& dec) {
  DeregisterServer msg;
  auto id = dec.get_u32();
  if (!id.ok()) return id.error();
  msg.server_id = id.value();
  return msg;
}

void ProbeRequest::encode(serial::Encoder& enc) const {
  enc.put_u64(request_id);
  enc.put_bool(fetch_result);
}

Result<ProbeRequest> ProbeRequest::decode(serial::Decoder& dec) {
  ProbeRequest msg;
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  auto fetch = dec.get_u8();
  if (!fetch.ok()) return fetch.error();
  if (fetch.value() > 1) return make_error(ErrorCode::kProtocol, "bad probe flag");
  msg.fetch_result = fetch.value() != 0;
  return msg;
}

void ProbeReply::encode(serial::Encoder& enc) const {
  enc.put_u64(request_id);
  enc.put_u8(static_cast<std::uint8_t>(state));
  enc.put_u64(iteration);
  enc.put_f64(residual);
  enc.put_bool(has_result);
  if (has_result) {
    // Framed as a blob: SolveResult's own trailing-optional fields would
    // otherwise swallow whatever follows it in a future revision.
    serial::Encoder nested;
    result.encode(nested);
    enc.put_bytes(nested.bytes().data(), nested.size());
  }
}

Result<ProbeReply> ProbeReply::decode(serial::Decoder& dec) {
  ProbeReply msg;
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  auto state = dec.get_u8();
  if (!state.ok()) return state.error();
  if (state.value() > static_cast<std::uint8_t>(JobState::kFailed)) {
    return make_error(ErrorCode::kProtocol, "bad job state");
  }
  msg.state = static_cast<JobState>(state.value());
  auto iteration = dec.get_u64();
  if (!iteration.ok()) return iteration.error();
  msg.iteration = iteration.value();
  auto residual = dec.get_f64();
  if (!residual.ok()) return residual.error();
  msg.residual = residual.value();
  auto has_result = dec.get_u8();
  if (!has_result.ok()) return has_result.error();
  if (has_result.value() > 1) return make_error(ErrorCode::kProtocol, "bad probe reply flag");
  msg.has_result = has_result.value() != 0;
  if (msg.has_result) {
    auto blob = dec.get_blob();
    if (!blob.ok()) return blob.error();
    serial::Decoder nested(blob.value());
    auto result = SolveResult::decode(nested);
    if (!result.ok()) return result.error();
    msg.result = std::move(result).value();
  }
  return msg;
}

void JobTransfer::encode(serial::Encoder& enc) const {
  serial::Encoder nested;
  request.encode(nested);
  enc.put_bytes(nested.bytes().data(), nested.size());
  enc.put_f64(deadline_remaining_s);
  enc.put_u64(checkpoint_iteration);
  enc.put_f64(checkpoint_residual);
  enc.put_bytes(checkpoint_state.data(), checkpoint_state.size());
  enc.put_string(from_server);
}

Result<JobTransfer> JobTransfer::decode(serial::Decoder& dec) {
  JobTransfer msg;
  auto blob = dec.get_blob();
  if (!blob.ok()) return blob.error();
  serial::Decoder nested(blob.value());
  auto request = SolveRequest::decode(nested);
  if (!request.ok()) return request.error();
  msg.request = std::move(request).value();
  auto deadline = dec.get_f64();
  if (!deadline.ok()) return deadline.error();
  msg.deadline_remaining_s = deadline.value();
  auto iteration = dec.get_u64();
  if (!iteration.ok()) return iteration.error();
  msg.checkpoint_iteration = iteration.value();
  auto residual = dec.get_f64();
  if (!residual.ok()) return residual.error();
  msg.checkpoint_residual = residual.value();
  auto state = dec.get_blob();
  if (!state.ok()) return state.error();
  msg.checkpoint_state = std::move(state).value();
  auto from = dec.get_string(256);
  if (!from.ok()) return from.error();
  msg.from_server = std::move(from).value();
  return msg;
}

void TransferAck::encode(serial::Encoder& enc) const {
  enc.put_u64(request_id);
  enc.put_bool(accepted);
  enc.put_string(reason);
}

Result<TransferAck> TransferAck::decode(serial::Decoder& dec) {
  TransferAck msg;
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  auto accepted = dec.get_u8();
  if (!accepted.ok()) return accepted.error();
  if (accepted.value() > 1) return make_error(ErrorCode::kProtocol, "bad transfer ack flag");
  msg.accepted = accepted.value() != 0;
  auto reason = dec.get_string();
  if (!reason.ok()) return reason.error();
  msg.reason = std::move(reason).value();
  return msg;
}

void CheckpointPut::encode(serial::Encoder& enc) const {
  enc.put_string(origin);
  enc.put_u64(request_id);
  enc.put_f64(deadline_remaining_s);
  enc.put_u64(iteration);
  enc.put_f64(residual);
  enc.put_u64(base_iteration);
  enc.put_bytes(frame.data(), frame.size());
  enc.put_bool(has_request);
  serial::Encoder nested;
  if (has_request) request.encode(nested);
  enc.put_bytes(nested.bytes().data(), nested.size());
}

Result<CheckpointPut> CheckpointPut::decode(serial::Decoder& dec) {
  CheckpointPut msg;
  auto origin = dec.get_string(256);
  if (!origin.ok()) return origin.error();
  msg.origin = std::move(origin).value();
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  auto deadline = dec.get_f64();
  if (!deadline.ok()) return deadline.error();
  msg.deadline_remaining_s = deadline.value();
  auto iteration = dec.get_u64();
  if (!iteration.ok()) return iteration.error();
  msg.iteration = iteration.value();
  auto residual = dec.get_f64();
  if (!residual.ok()) return residual.error();
  msg.residual = residual.value();
  auto base = dec.get_u64();
  if (!base.ok()) return base.error();
  msg.base_iteration = base.value();
  auto frame = dec.get_blob();
  if (!frame.ok()) return frame.error();
  msg.frame = std::move(frame).value();
  auto has_request = dec.get_u8();
  if (!has_request.ok()) return has_request.error();
  if (has_request.value() > 1) {
    return make_error(ErrorCode::kProtocol, "bad checkpoint put flag");
  }
  msg.has_request = has_request.value() != 0;
  auto blob = dec.get_blob();
  if (!blob.ok()) return blob.error();
  if (msg.has_request) {
    serial::Decoder nested(blob.value());
    auto request = SolveRequest::decode(nested);
    if (!request.ok()) return request.error();
    msg.request = std::move(request).value();
  }
  return msg;
}

void CheckpointPutAck::encode(serial::Encoder& enc) const {
  enc.put_u64(request_id);
  enc.put_bool(accepted);
  enc.put_string(reason);
}

Result<CheckpointPutAck> CheckpointPutAck::decode(serial::Decoder& dec) {
  CheckpointPutAck msg;
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  auto accepted = dec.get_u8();
  if (!accepted.ok()) return accepted.error();
  if (accepted.value() > 1) {
    return make_error(ErrorCode::kProtocol, "bad checkpoint ack flag");
  }
  msg.accepted = accepted.value() != 0;
  auto reason = dec.get_string();
  if (!reason.ok()) return reason.error();
  msg.reason = std::move(reason).value();
  return msg;
}

void CheckpointFetch::encode(serial::Encoder& enc) const {
  enc.put_u64(request_id);
  enc.put_string(origin);
  enc.put_bool(adopt);
}

Result<CheckpointFetch> CheckpointFetch::decode(serial::Decoder& dec) {
  CheckpointFetch msg;
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  auto origin = dec.get_string(256);
  if (!origin.ok()) return origin.error();
  msg.origin = std::move(origin).value();
  auto adopt = dec.get_u8();
  if (!adopt.ok()) return adopt.error();
  if (adopt.value() > 1) return make_error(ErrorCode::kProtocol, "bad fetch flag");
  msg.adopt = adopt.value() != 0;
  return msg;
}

void CheckpointFetchReply::encode(serial::Encoder& enc) const {
  enc.put_u64(request_id);
  enc.put_bool(found);
  enc.put_bool(adopted);
  enc.put_u64(iteration);
  enc.put_f64(residual);
  enc.put_string(origin);
}

Result<CheckpointFetchReply> CheckpointFetchReply::decode(serial::Decoder& dec) {
  CheckpointFetchReply msg;
  auto id = dec.get_u64();
  if (!id.ok()) return id.error();
  msg.request_id = id.value();
  auto found = dec.get_u8();
  if (!found.ok()) return found.error();
  if (found.value() > 1) return make_error(ErrorCode::kProtocol, "bad fetch reply flag");
  msg.found = found.value() != 0;
  auto adopted = dec.get_u8();
  if (!adopted.ok()) return adopted.error();
  if (adopted.value() > 1) return make_error(ErrorCode::kProtocol, "bad fetch reply flag");
  msg.adopted = adopted.value() != 0;
  auto iteration = dec.get_u64();
  if (!iteration.ok()) return iteration.error();
  msg.iteration = iteration.value();
  auto residual = dec.get_f64();
  if (!residual.ok()) return residual.error();
  msg.residual = residual.value();
  auto origin = dec.get_string(256);
  if (!origin.ok()) return origin.error();
  msg.origin = std::move(origin).value();
  return msg;
}

void MetricsQuery::encode(serial::Encoder& enc) const { enc.put_string(prefix); }

Result<MetricsQuery> MetricsQuery::decode(serial::Decoder& dec) {
  MetricsQuery msg;
  auto prefix = dec.get_string(256);
  if (!prefix.ok()) return prefix.error();
  msg.prefix = std::move(prefix).value();
  return msg;
}

void MetricsDump::encode(serial::Encoder& enc) const {
  enc.put_u32(static_cast<std::uint32_t>(snapshot.entries.size()));
  for (const auto& e : snapshot.entries) {
    enc.put_u8(static_cast<std::uint8_t>(e.kind));
    enc.put_string(e.name);
    enc.put_u64(e.count);
    enc.put_f64(e.value);
    if (e.kind == metrics::Snapshot::Kind::kHistogram) {
      enc.put_f64(e.min);
      enc.put_f64(e.max);
      enc.put_u32(static_cast<std::uint32_t>(e.buckets.size()));
      for (const auto b : e.buckets) enc.put_u64(b);
    }
  }
}

Result<MetricsDump> MetricsDump::decode(serial::Decoder& dec) {
  auto count = dec.get_u32();
  if (!count.ok()) return count.error();
  if (count.value() > 65536) {
    return make_error(ErrorCode::kProtocol, "too many metrics entries");
  }
  MetricsDump msg;
  msg.snapshot.entries.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    metrics::Snapshot::Entry e;
    auto kind = dec.get_u8();
    if (!kind.ok()) return kind.error();
    if (kind.value() > static_cast<std::uint8_t>(metrics::Snapshot::Kind::kHistogram)) {
      return make_error(ErrorCode::kProtocol, "bad metric kind");
    }
    e.kind = static_cast<metrics::Snapshot::Kind>(kind.value());
    auto name = dec.get_string(512);
    if (!name.ok()) return name.error();
    e.name = std::move(name).value();
    auto cnt = dec.get_u64();
    if (!cnt.ok()) return cnt.error();
    e.count = cnt.value();
    auto value = dec.get_f64();
    if (!value.ok()) return value.error();
    e.value = value.value();
    if (e.kind == metrics::Snapshot::Kind::kHistogram) {
      auto min = dec.get_f64();
      if (!min.ok()) return min.error();
      e.min = min.value();
      auto max = dec.get_f64();
      if (!max.ok()) return max.error();
      e.max = max.value();
      auto buckets = dec.get_u32();
      if (!buckets.ok()) return buckets.error();
      if (buckets.value() != metrics::kNumBuckets) {
        return make_error(ErrorCode::kProtocol, "histogram bucket count mismatch");
      }
      e.buckets.reserve(buckets.value());
      for (std::uint32_t j = 0; j < buckets.value(); ++j) {
        auto b = dec.get_u64();
        if (!b.ok()) return b.error();
        e.buckets.push_back(b.value());
      }
    }
    msg.snapshot.entries.push_back(std::move(e));
  }
  return msg;
}

void ErrorReply::encode(serial::Encoder& enc) const {
  enc.put_u16(error_code);
  enc.put_string(message);
}

Result<ErrorReply> ErrorReply::decode(serial::Decoder& dec) {
  ErrorReply msg;
  auto code = dec.get_u16();
  if (!code.ok()) return code.error();
  msg.error_code = code.value();
  auto message = dec.get_string();
  if (!message.ok()) return message.error();
  msg.message = std::move(message).value();
  return msg;
}

void SyncEntry::encode(serial::Encoder& enc) const {
  enc.put_string(server_name);
  encode_endpoint(enc, endpoint);
  enc.put_f64(mflops);
  enc.put_f64(workload);
  enc.put_u64(completed);
  enc.put_bool(alive);
  enc.put_f64(age_seconds);
  encode_specs(enc, problems);
}

Result<SyncEntry> SyncEntry::decode(serial::Decoder& dec) {
  SyncEntry msg;
  auto name = dec.get_string(256);
  if (!name.ok()) return name.error();
  msg.server_name = std::move(name).value();
  auto ep = decode_endpoint(dec);
  if (!ep.ok()) return ep.error();
  msg.endpoint = std::move(ep).value();
  auto mflops = dec.get_f64();
  if (!mflops.ok()) return mflops.error();
  msg.mflops = mflops.value();
  auto workload = dec.get_f64();
  if (!workload.ok()) return workload.error();
  msg.workload = workload.value();
  auto completed = dec.get_u64();
  if (!completed.ok()) return completed.error();
  msg.completed = completed.value();
  auto alive = dec.get_bool();
  if (!alive.ok()) return alive.error();
  msg.alive = alive.value();
  auto age = dec.get_f64();
  if (!age.ok()) return age.error();
  msg.age_seconds = age.value();
  auto specs = decode_specs(dec);
  if (!specs.ok()) return specs.error();
  msg.problems = std::move(specs).value();
  return msg;
}

void SyncState::encode(serial::Encoder& enc) const {
  enc.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) e.encode(enc);
}

Result<SyncState> SyncState::decode(serial::Decoder& dec) {
  auto count = dec.get_u32();
  if (!count.ok()) return count.error();
  if (count.value() > 65536) {
    return make_error(ErrorCode::kProtocol, "too many sync entries");
  }
  SyncState msg;
  msg.entries.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto entry = SyncEntry::decode(dec);
    if (!entry.ok()) return entry.error();
    msg.entries.push_back(std::move(entry).value());
  }
  return msg;
}

void PeerStatus::encode(serial::Encoder& enc) const {
  encode_endpoint(enc, endpoint);
  enc.put_bool(alive);
  enc.put_f64(age_seconds);
}

Result<PeerStatus> PeerStatus::decode(serial::Decoder& dec) {
  PeerStatus msg;
  auto ep = decode_endpoint(dec);
  if (!ep.ok()) return ep.error();
  msg.endpoint = std::move(ep).value();
  auto alive = dec.get_bool();
  if (!alive.ok()) return alive.error();
  msg.alive = alive.value();
  auto age = dec.get_f64();
  if (!age.ok()) return age.error();
  msg.age_seconds = age.value();
  return msg;
}

void AgentStats::encode(serial::Encoder& enc) const {
  enc.put_u64(queries);
  enc.put_u64(registrations);
  enc.put_u64(workload_reports);
  enc.put_u64(failure_reports);
  enc.put_u32(alive_servers);
  enc.put_u32(static_cast<std::uint32_t>(peers.size()));
  for (const auto& p : peers) p.encode(enc);
}

Result<AgentStats> AgentStats::decode(serial::Decoder& dec) {
  AgentStats msg;
  auto queries = dec.get_u64();
  if (!queries.ok()) return queries.error();
  msg.queries = queries.value();
  auto regs = dec.get_u64();
  if (!regs.ok()) return regs.error();
  msg.registrations = regs.value();
  auto reports = dec.get_u64();
  if (!reports.ok()) return reports.error();
  msg.workload_reports = reports.value();
  auto failures = dec.get_u64();
  if (!failures.ok()) return failures.error();
  msg.failure_reports = failures.value();
  auto alive = dec.get_u32();
  if (!alive.ok()) return alive.error();
  msg.alive_servers = alive.value();
  auto count = dec.get_u32();
  if (!count.ok()) return count.error();
  if (count.value() > 1024) {
    return make_error(ErrorCode::kProtocol, "too many peer statuses");
  }
  msg.peers.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto p = PeerStatus::decode(dec);
    if (!p.ok()) return p.error();
    msg.peers.push_back(std::move(p).value());
  }
  return msg;
}

}  // namespace ns::proto
