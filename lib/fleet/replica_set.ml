module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Int_table = Bmcast_engine.Int_table
module Aoe = Bmcast_proto.Aoe
module Vblade = Bmcast_proto.Vblade
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics

type policy =
  | Static_shard of int
  | Least_outstanding
  | Weighted_rtt

let default_shard_sectors = 64 * 2048 (* 64 MB stripes *)

let policy_to_string = function
  | Static_shard s -> Printf.sprintf "shard:%d" s
  | Least_outstanding -> "least-outstanding"
  | Weighted_rtt -> "weighted-rtt"

let policy_of_string = function
  | "shard" -> Some (Static_shard default_shard_sectors)
  | "least-outstanding" -> Some Least_outstanding
  | "weighted-rtt" -> Some Weighted_rtt
  | s -> (
    match String.split_on_char ':' s with
    | [ "shard"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> Some (Static_shard n)
      | Some _ | None -> None)
    | _ -> None)

type replica = {
  vblade : Vblade.t;
  port : int;
  mutable outstanding : int;
  mutable routed : int;
  mutable ewma_rtt_ns : float;  (* 0.0 until the first sample *)
  mutable suspect_until : Time.t;
  m_routed : float ref;
  m_rtt : float ref;
}

(* One tracked command: enough state to re-route retransmissions and to
   recognize its completion from the response stream. *)
type flight = {
  mutable ridx : int;
  want : int;
  cmd : Aoe.command;
  mutable got : int;
  mutable attempts : int;
  mutable last_sent : Time.t;
}

(* Probation after a retransmit implicates a replica. *)
let cooldown = Time.ms 500

type t = {
  sim : Sim.t;
  policy : policy;
  replicas : replica array;
  prng : Prng.t;
  flights : flight Int_table.t;  (* by tag *)
  mutable failovers : int;
  m_failovers : float ref;
}

let create sim ?(policy = Least_outstanding) vblades =
  if vblades = [] then invalid_arg "Replica_set.create: empty replica list";
  let metrics = Sim.metrics sim in
  let replicas =
    Array.of_list
      (List.mapi
         (fun i v ->
           let labels = [ ("replica", string_of_int i) ] in
           (* Health as the autoscaler will read it: liveness straight
              from the vblade (pull-only, evaluated at sample time) and
              the smoothed RTT the router steers by. *)
           Metrics.derived metrics ~labels "replica.up" (fun () ->
               if Vblade.is_up v then 1.0 else 0.0);
           { vblade = v;
             port = Vblade.port_id v;
             outstanding = 0;
             routed = 0;
             ewma_rtt_ns = 0.0;
             suspect_until = Time.zero;
             m_routed =
               Metrics.counter metrics ~labels "fleet.requests_routed";
             m_rtt = Metrics.gauge metrics ~labels "replica.rtt_ms" })
         vblades)
  in
  { sim;
    policy;
    replicas;
    prng = Prng.split (Sim.rand sim);
    flights = Int_table.create 64;
    failovers = 0;
    m_failovers = Metrics.counter metrics "fleet.failovers" }

let size t = Array.length t.replicas
let port_of t i = t.replicas.(i).port
let outstanding t i = t.replicas.(i).outstanding
let requests_routed t i = t.replicas.(i).routed
let failovers t = t.failovers
let rtt_estimate_ms t i = t.replicas.(i).ewma_rtt_ns /. 1e6

let eligible t now i =
  let r = t.replicas.(i) in
  Vblade.is_up r.vblade && now >= r.suspect_until

(* Candidate indices, in preference order of degradation: live and off
   probation; else merely live; else everyone (the retransmission loop
   will sort it out once somebody comes back). *)
let candidates t =
  let n = Array.length t.replicas in
  let now = Sim.now t.sim in
  let pick f = List.filter f (List.init n Fun.id) in
  match pick (eligible t now) with
  | _ :: _ as l -> l
  | [] -> (
    match pick (fun i -> Vblade.is_up t.replicas.(i).vblade) with
    | _ :: _ as l -> l
    | [] -> List.init n Fun.id)

let select t ~lba =
  let n = Array.length t.replicas in
  let cands = candidates t in
  match t.policy with
  | Static_shard shard ->
    (* The home shard owner, or the next candidate after it (wrapping)
       when the owner is out. *)
    let home = lba / shard mod n in
    let rec probe k =
      if k = n then List.hd cands
      else
        let i = (home + k) mod n in
        if List.mem i cands then i else probe (k + 1)
    in
    probe 0
  | Least_outstanding ->
    List.fold_left
      (fun best i ->
        if t.replicas.(i).outstanding < t.replicas.(best).outstanding then i
        else best)
      (List.hd cands) (List.tl cands)
  | Weighted_rtt ->
    (* Inverse-RTT weights; an unmeasured replica gets the heaviest
       measured weight so it is probed early. *)
    let measured =
      List.filter_map
        (fun i ->
          let e = t.replicas.(i).ewma_rtt_ns in
          if e > 0.0 then Some (1.0 /. e) else None)
        cands
    in
    let wmax = List.fold_left Float.max 1e-9 measured in
    let weight i =
      let e = t.replicas.(i).ewma_rtt_ns in
      if e > 0.0 then 1.0 /. e else wmax
    in
    let total = List.fold_left (fun acc i -> acc +. weight i) 0.0 cands in
    let u = Prng.float t.prng total in
    let rec walk acc = function
      | [] -> List.hd (List.rev cands)
      | [ i ] -> i
      | i :: rest ->
        let acc = acc +. weight i in
        if u < acc then i else walk acc rest
    in
    walk 0.0 cands

let ewma_alpha = 0.2

let route t (hdr : Aoe.header) =
  let now = Sim.now t.sim in
  match Int_table.find t.flights hdr.Aoe.tag with
  | exception Not_found ->
    let i = select t ~lba:hdr.Aoe.lba in
    let r = t.replicas.(i) in
    r.outstanding <- r.outstanding + 1;
    r.routed <- r.routed + 1;
    Metrics.incr r.m_routed;
    Int_table.replace t.flights hdr.Aoe.tag
      { ridx = i;
        want = hdr.Aoe.count;
        cmd = hdr.Aoe.command;
        got = 0;
        attempts = 1;
        last_sent = now };
    r.port
  | f ->
    (* Retransmission: the replica we sent to did not answer in time.
       Put it on probation and re-select; a crashed replica (epoch
       bumped, [is_up] false) drops out of the candidate set entirely. *)
    let old = f.ridx in
    t.replicas.(old).suspect_until <- Time.add now cooldown;
    let i = select t ~lba:hdr.Aoe.lba in
    if i <> old then begin
      t.failovers <- t.failovers + 1;
      Metrics.incr t.m_failovers;
      t.replicas.(old).outstanding <- t.replicas.(old).outstanding - 1;
      t.replicas.(i).outstanding <- t.replicas.(i).outstanding + 1;
      let tr = Sim.trace t.sim in
      if Trace.on tr ~cat:"fleet" then
        Trace.instant tr ~cat:"fleet"
          ~args:
            [ ("tag", Trace.Int hdr.Aoe.tag);
              ("from", Trace.Int old);
              ("to", Trace.Int i) ]
          "failover"
    end;
    f.ridx <- i;
    f.attempts <- f.attempts + 1;
    f.last_sent <- now;
    t.replicas.(i).port

let complete t tag f =
  let r = t.replicas.(f.ridx) in
  r.outstanding <- max 0 (r.outstanding - 1);
  Int_table.remove t.flights tag

let observe t (hdr : Aoe.header) =
  if hdr.Aoe.is_response then
    match Int_table.find t.flights hdr.Aoe.tag with
    | exception Not_found -> () (* stale duplicate after completion *)
    | f ->
      let r = t.replicas.(f.ridx) in
      (* An answer is proof of life: lift the probation immediately. *)
      r.suspect_until <- Time.zero;
      (* RTT only from unambiguous samples (Karn's rule): first response
         frame of a never-retransmitted command. *)
      if f.got = 0 && f.attempts = 1 then begin
        let sample =
          Stdlib.max 0 (Time.diff (Sim.now t.sim) f.last_sent)
          |> float_of_int
        in
        r.ewma_rtt_ns <-
          (if r.ewma_rtt_ns <= 0.0 then sample
           else ((1.0 -. ewma_alpha) *. r.ewma_rtt_ns) +. (ewma_alpha *. sample));
        Metrics.set r.m_rtt (r.ewma_rtt_ns /. 1e6)
      end;
      if hdr.Aoe.error then complete t hdr.Aoe.tag f
      else (
        match f.cmd with
        | Aoe.Ata_read ->
          f.got <- f.got + hdr.Aoe.count;
          if f.got >= f.want then complete t hdr.Aoe.tag f
        | Aoe.Ata_write | Aoe.Query_config -> complete t hdr.Aoe.tag f)
