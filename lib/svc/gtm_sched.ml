module Engine = Mdbs_core.Engine
module Scheme = Mdbs_core.Scheme
module Queue_op = Mdbs_core.Queue_op

type t = { engine : Engine.t; mutex : Mutex.t }

let create ?obs scheme = { engine = Engine.create ?obs scheme; mutex = Mutex.create () }

let locked t f =
  Mutex.lock t.mutex;
  match f t.engine with
  | v ->
      Mutex.unlock t.mutex;
      v
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

let run_ops t ops =
  locked t (fun e ->
      Engine.enqueue_all e ops;
      Engine.run e)

let stalled t =
  locked t (fun e ->
      let scheme = Engine.scheme e in
      List.map
        (fun op -> (Queue_op.to_string op, scheme.Scheme.explain op))
        (Engine.wait_set e))

let blockers t op = locked t (fun e -> (Engine.scheme e).Scheme.blockers op)

let with_engine t f = locked t f
