module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Mailbox = Bmcast_engine.Mailbox
module Signal = Bmcast_engine.Signal

type work = { bytes : int; dst : int; on_complete : unit -> unit }

(* QDR 4X after 8b/10b encoding. *)
let rate_bytes_per_s = 3.2e9

let base_latency = Time.us 1 + 300

type t = {
  sim : Sim.t;
  mutable endpoints : endpoint array;
  mutable bytes_transferred : int;
}

and endpoint = {
  id : int;
  name : string;
  fabric : t;
  mutable op_overhead : Time.span;
  txq : work Mailbox.t;
  (* two-sided messaging: per-source queues of message sizes *)
  msgq : (int, int Mailbox.t) Hashtbl.t;
}

let create sim = { sim; endpoints = [||]; bytes_transferred = 0 }

(* HCA transmit engine: serializes posted work requests onto the wire and
   fires completions after the wire latency. *)
let rec hca_loop t ep =
  let w = Mailbox.recv ep.txq in
  Sim.sleep (Time.of_float_s (float_of_int w.bytes /. rate_bytes_per_s));
  t.bytes_transferred <- t.bytes_transferred + w.bytes;
  let complete_at = Time.add (Sim.now t.sim) base_latency in
  Sim.schedule t.sim complete_at w.on_complete;
  hca_loop t ep

let attach t ~name =
  let ep =
    { id = Array.length t.endpoints;
      name;
      fabric = t;
      op_overhead = 0;
      txq = Mailbox.create ();
      msgq = Hashtbl.create 8 }
  in
  t.endpoints <- Array.append t.endpoints [| ep |];
  Sim.spawn_at t.sim ~name:(name ^ "-hca") (Sim.now t.sim) (fun () ->
      hca_loop t ep);
  ep

let set_op_overhead ep ov = ep.op_overhead <- ov
let op_overhead ep = ep.op_overhead
let bytes_transferred t = t.bytes_transferred

let post ep ~dst ~bytes ~on_complete =
  if bytes <= 0 then invalid_arg "Ib.post: bytes must be positive";
  if ep.op_overhead > 0 then Sim.sleep ep.op_overhead;
  ignore
    (Mailbox.try_send ep.txq { bytes; dst = dst.id; on_complete } : bool)

let rdma ep ~dst ~bytes =
  let done_ = Signal.Latch.create () in
  post ep ~dst ~bytes ~on_complete:(fun () -> Signal.Latch.set done_);
  Signal.Latch.wait done_

let msg_queue ep ~src =
  match Hashtbl.find_opt ep.msgq src with
  | Some q -> q
  | None ->
    let q = Mailbox.create () in
    Hashtbl.replace ep.msgq src q;
    q

let send_msg ep ~dst ~bytes =
  let q = msg_queue dst ~src:ep.id in
  rdma ep ~dst ~bytes;
  Mailbox.send q bytes

let recv_msg ep ~src = Mailbox.recv (msg_queue ep ~src:src.id)
