// Object adapter: the server-side glue between object keys and servants.
//
// Plays the role of CORBA's POA in a reduced form: servants are activated
// under generated object keys, the adapter mints IORs for them, and incoming
// requests are dispatched to the servant with uniform exception-to-reply
// mapping.  Built-in operations (_is_a, _interface, _ping) are answered by
// the adapter itself, mirroring CORBA's implicit object operations.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "orb/dispatch_pool.hpp"
#include "orb/ior.hpp"
#include "orb/message.hpp"
#include "orb/value.hpp"

namespace corba {

/// Transport identity of an adapter; copied into every IOR it mints.
struct EndpointProfile {
  std::string protocol;  ///< protocol::inproc or protocol::tcp
  std::string host;
  std::uint16_t port = 0;
  /// Id baked into generated object keys; 0 = allocate process-globally.
  std::uint64_t adapter_id = 0;
};

/// Base class of all servants.  Interface skeletons derive from this and
/// implement dispatch() by decoding tagged arguments into typed virtuals.
class Servant {
 public:
  virtual ~Servant() = default;

  /// Repository id of the most derived interface.
  virtual std::string_view repo_id() const noexcept = 0;

  /// Invokes `op` with tagged arguments; returns the tagged result.
  /// Throws BAD_OPERATION for unknown operations and UserException
  /// subclasses for IDL-declared errors.
  virtual Value dispatch(std::string_view op, const ValueSeq& args) = 0;

  /// Throws BAD_PARAM unless exactly `n` arguments were supplied.  Public so
  /// that the adapter and generic dispatch helpers can reuse it.
  static void check_arity(std::string_view op, const ValueSeq& args,
                          std::size_t n);
};

/// Thread-safe servant registry + request dispatcher.
class ObjectAdapter {
 public:
  explicit ObjectAdapter(EndpointProfile profile);

  ObjectAdapter(const ObjectAdapter&) = delete;
  ObjectAdapter& operator=(const ObjectAdapter&) = delete;

  const EndpointProfile& profile() const noexcept { return profile_; }

  /// Activates a servant under a fresh key and returns its IOR.  The hint
  /// becomes part of the key for debuggability.
  IOR activate(std::shared_ptr<Servant> servant, std::string_view name_hint = {});

  /// Activates a servant under a caller-chosen key (e.g. well-known service
  /// keys).  Throws BAD_PARAM if the key is already in use.
  IOR activate_with_key(ObjectKey key, std::shared_ptr<Servant> servant);

  /// Removes the servant; subsequent requests get OBJECT_NOT_EXIST.
  void deactivate(const ObjectKey& key);

  /// Returns the servant or nullptr.
  std::shared_ptr<Servant> find(const ObjectKey& key) const;

  std::size_t active_count() const;

  /// Dispatches a request to the target servant.  Never throws: all
  /// exceptions are converted into exception replies, mirroring how a real
  /// ORB isolates clients from server-side failures.
  ReplyMessage dispatch(const RequestMessage& request) noexcept;

  /// Starts the bounded dispatch thread pool the TCP reactor submits to.
  /// Idempotent; BAD_INV_ORDER if already started with different options.
  void enable_dispatch_pool(DispatchPool::Options options);

  /// Drains and joins the pool.  Idempotent, safe without a pool.
  void stop_dispatch_pool();

  /// The pool, or nullptr before enable_dispatch_pool (no TCP endpoint).
  DispatchPool* dispatch_pool() const noexcept { return pool_.get(); }

 private:
  IOR make_ior(const std::shared_ptr<Servant>& servant, ObjectKey key) const;

  EndpointProfile profile_;
  mutable std::mutex mu_;
  std::unordered_map<ObjectKey, std::shared_ptr<Servant>, ObjectKeyHash>
      servants_;
  std::uint64_t next_key_ = 1;
  std::uint64_t adapter_id_;
  /// Created once by enable_dispatch_pool; guarded by pool_mu_ for creation,
  /// read lock-free afterwards (shared_ptr-like stability: never reset until
  /// destruction).
  mutable std::mutex pool_mu_;
  std::unique_ptr<DispatchPool> pool_;
};

}  // namespace corba
