module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Signal = Bmcast_engine.Signal
module Content = Bmcast_storage.Content
module Trace = Bmcast_obs.Trace
module Profile = Bmcast_obs.Profile

exception Timeout of string

exception Target_error of string

type pending = {
  request : Aoe.header;
  write_data : Content.t array option;  (* resent on retry *)
  out : Content.t array;  (* a read's fragments land here, in place *)
  out_off : int;  (* where the command's first sector lands in [out] *)
  got : Bytes.t;  (* one byte per sector: arrival, robust to duplicates *)
  mutable received : int;
  mutable response_lba : int;  (* Query_config answer *)
  mutable failed : bool;  (* target answered with the error flag *)
  done_ : Signal.Latch.t;
}

(* Every client addresses shelf 0, slot 0. *)
let major = 0
let minor = 0
let max_retries = 10

(* Pending commands by tag. *)
module Tags = Bmcast_engine.Int_table

type t = {
  sim : Sim.t;
  send : Aoe.header -> Content.t array -> unit;
  owner : string option;  (* machine name, for analytics span tags *)
  mtu : int;
  timeout : Time.span;
  max_read_sectors : int;
  mutable next_tag : int;
  pending : pending Tags.t;
  mutable retransmits : int;
  mutable requests_sent : int;
  mutable escalation : (attempts:int -> Aoe.header -> [ `Retry | `Fail ]) option;
  mutable escalations : int;
  mutable completions : int;
  mutable mcast_sub : (lba:int -> count:int -> Content.t array -> unit) option;
  mutable mcast_frames : int;
}

let create sim ~send ?owner ?(mtu = 9000) ?(timeout = Time.ms 20)
    ?(max_read_sectors = 1024) () =
  if max_read_sectors <= 0 then
    invalid_arg "Aoe_client: max_read_sectors must be positive";
  { sim;
    send;
    owner;
    mtu;
    timeout;
    max_read_sectors;
    next_tag = 1;
    pending = Tags.create 32;
    retransmits = 0;
    requests_sent = 0;
    escalation = None;
    escalations = 0;
    completions = 0;
    mcast_sub = None;
    mcast_frames = 0 }

let retransmits t = t.retransmits
let requests_sent t = t.requests_sent
let subscribe_mcast t f = t.mcast_sub <- Some f
let mcast_frames t = t.mcast_frames
let set_escalation t f = t.escalation <- Some f
let escalations t = t.escalations
let completions t = t.completions
let pending_count t = Tags.length t.pending

let fresh_tag t =
  let tag = t.next_tag in
  t.next_tag <- if tag >= 0xFF_FFFF then 1 else tag + 1;
  tag

(* This client is the final consumer of a read-response fragment's data
   array (vblade allocates it from [Content.Scratch] and the fabric only
   recycles frame records, not payloads): once the sectors are copied
   into the read's output array — or the fragment is recognized as a stale
   duplicate — the array goes back to the pool. *)
let release_data frame =
  if Array.length frame.Aoe.data > 0 then
    Content.Scratch.release frame.Aoe.data

let on_frame_inner t frame =
  let hdr = frame.Aoe.hdr in
  if hdr.Aoe.is_response then
    if hdr.Aoe.tag = Aoe.mcast_tag then begin
      (* Unsolicited multicast data. The payload array is shared with
         every other group member (the fabric only copies frame
         records), so it is borrowed for the duration of the callback —
         never released to the scratch pool and never stored. Checked
         before the pending table: tag 0 can't match a command, and the
         stale-duplicate branch below would wrongly release the shared
         array. *)
      match t.mcast_sub with
      | Some f when (not hdr.Aoe.error) && hdr.Aoe.command = Aoe.Ata_read ->
        t.mcast_frames <- t.mcast_frames + 1;
        f ~lba:hdr.Aoe.lba ~count:(Array.length frame.Aoe.data) frame.Aoe.data
      | _ -> ()
    end
    else
    match Tags.find t.pending hdr.Aoe.tag with
    | exception Not_found ->
      release_data frame (* stale duplicate after completion *)
    | p when hdr.Aoe.error ->
      p.failed <- true;
      Tags.remove t.pending hdr.Aoe.tag;
      t.completions <- t.completions + 1;
      Signal.Latch.set p.done_
    | p ->
      let base = p.request.Aoe.lba in
      (match p.request.Aoe.command with
      | Aoe.Ata_read ->
        let off = hdr.Aoe.lba - base in
        let n = Array.length frame.Aoe.data in
        (if off < 0 || off + n > p.request.Aoe.count then ()
         else
           for i = 0 to n - 1 do
             if Bytes.get p.got (off + i) = '\000' then begin
               Bytes.set p.got (off + i) '\001';
               p.out.(p.out_off + off + i) <- frame.Aoe.data.(i);
               p.received <- p.received + 1
             end
           done);
        release_data frame
      | Aoe.Ata_write ->
        (* A write ack covers the whole command. *)
        if p.received = 0 then p.received <- p.request.Aoe.count
      | Aoe.Query_config ->
        p.response_lba <- hdr.Aoe.lba;
        if p.received = 0 then p.received <- p.request.Aoe.count);
      if p.received >= p.request.Aoe.count then begin
        Tags.remove t.pending hdr.Aoe.tag;
        t.completions <- t.completions + 1;
        Signal.Latch.set p.done_
      end

(* Response reassembly never blocks (latch wake-ups only push jobs), so
   it is safe to scope for the allocation profiler. *)
let on_frame t frame =
  let prof = Sim.profile t.sim in
  if Profile.enabled prof then begin
    Profile.enter prof "proto.aoe_rx";
    on_frame_inner t frame;
    Profile.exit prof "proto.aoe_rx"
  end
  else on_frame_inner t frame

let command_name = function
  | Aoe.Ata_read -> "aoe-read"
  | Aoe.Ata_write -> "aoe-write"
  | Aoe.Query_config -> "query-config"

(* Issue one command and block until fully answered, retrying on
   timeout. A read's sectors land in [out] from [out_off] on. *)
let run_command t request write_data ~out ~out_off =
  let tr = Sim.trace t.sim in
  let traced = Trace.on tr ~cat:"aoe" in
  let start = Sim.now t.sim in
  let tries = ref 0 in
  let p =
    { request;
      write_data;
      out;
      out_off;
      got = Bytes.make request.Aoe.count '\000';
      received = 0;
      response_lba = 0;
      failed = false;
      done_ = Signal.Latch.create () }
  in
  Tags.replace t.pending request.Aoe.tag p;
  let payload = Option.value write_data ~default:[||] in
  let give_up () =
    Tags.remove t.pending request.Aoe.tag;
    raise
      (Timeout
         (Printf.sprintf "AoE command tag=%d lba=%d count=%d"
            request.Aoe.tag request.Aoe.lba request.Aoe.count))
  in
  let rec attempt n =
    (* Exhausted the normal retry budget: consult the escalation hook
       (installed by the VMM) before surfacing a timeout. [`Retry] keeps
       the command alive at the capped backoff so a target that comes
       back — failover, crash recovery — lets it complete instead of
       erroring into the guest's I/O path. Without a hook the historical
       behaviour stands: raise {!Timeout}. *)
    if n > max_retries then begin
      match t.escalation with
      | None -> give_up ()
      | Some f -> (
        match f ~attempts:n request with
        | `Fail -> give_up ()
        | `Retry ->
          t.escalations <- t.escalations + 1;
          if traced then
            Trace.instant tr ~cat:"aoe"
              ~args:[ ("tag", Trace.Int request.Aoe.tag) ]
              "escalate")
    end;
    if n > 0 then begin
      t.retransmits <- t.retransmits + 1;
      incr tries;
      if traced then
        Trace.instant tr ~cat:"aoe"
          ~args:[ ("tag", Trace.Int request.Aoe.tag) ]
          "retransmit"
    end;
    t.requests_sent <- t.requests_sent + 1;
    t.send request payload;
    (* Wait for completion or timeout; the timeout backs off
       exponentially across retries so a loaded target is not buried
       under retransmissions. *)
    let backoff = Time.mul t.timeout (1 lsl min n 6) in
    let deadline = Time.add (Sim.now t.sim) backoff in
    let woke =
      Sim.suspend (fun waker ->
          (* Completion wake-up racing the timeout; first caller wins. *)
          Signal.Latch.on_set p.done_ (fun () -> ignore (waker true : bool));
          Sim.schedule t.sim deadline (fun () -> ignore (waker false : bool)))
    in
    if not woke && not (Signal.Latch.is_set p.done_) then attempt (n + 1)
  in
  attempt 0;
  if traced then begin
    let args =
      [ ("tag", Trace.Int request.Aoe.tag);
        ("lba", Trace.Int request.Aoe.lba);
        ("count", Trace.Int request.Aoe.count);
        ("retries", Trace.Int !tries) ]
    in
    let args =
      (* Machine + stage tags route the span into the per-operation
         table of [Bmcast_obs.Analytics]. *)
      match t.owner with
      | Some m ->
        ("m", Trace.Str m) :: ("stage", Trace.Str "transport") :: args
      | None -> args
    in
    Trace.complete tr ~cat:"aoe" ~args
      (command_name request.Aoe.command)
      ~ts:start
  end;
  if p.failed then
    raise
      (Target_error
         (Printf.sprintf "AoE target rejected lba=%d count=%d"
            request.Aoe.lba request.Aoe.count));
  p

let query_capacity t =
  let request =
    { Aoe.major;
      minor;
      command = Aoe.Query_config;
      tag = fresh_tag t;
      frag = 0;
      is_response = false;
      error = false;
      lba = 0;
      count = 1 }
  in
  (run_command t request None ~out:[||] ~out_off:0).response_lba

let read_into t ~lba ~count dst ~pos =
  if count <= 0 then
    invalid_arg "Aoe_client.read_into: count must be positive";
  if pos < 0 || pos > Array.length dst - count then
    invalid_arg
      (Printf.sprintf
         "Aoe_client.read_into: %d sectors at %d leave the array (%d)" count
         pos (Array.length dst));
  let rec go off =
    if off < count then begin
      let n = min t.max_read_sectors (count - off) in
      let request =
        { Aoe.major;
          minor;
          command = Aoe.Ata_read;
          tag = fresh_tag t;
          frag = 0;
          is_response = false;
          error = false;
          lba = lba + off;
          count = n }
      in
      ignore (run_command t request None ~out:dst ~out_off:(pos + off) : pending);
      go (off + n)
    end
  in
  go 0

let read t ~lba ~count =
  if count <= 0 then invalid_arg "Aoe_client.read: count must be positive";
  let out = Content.zeroes ~count in
  read_into t ~lba ~count out ~pos:0;
  out

let write t ~lba ~count data =
  if count <= 0 then invalid_arg "Aoe_client.write: count must be positive";
  if Array.length data <> count then
    invalid_arg "Aoe_client.write: data length mismatch";
  let per_frame = Aoe.max_sectors ~mtu:t.mtu in
  let rec go off =
    if off < count then begin
      let n = min per_frame (count - off) in
      let request =
        { Aoe.major;
          minor;
          command = Aoe.Ata_write;
          tag = fresh_tag t;
          frag = 0;
          is_response = false;
          error = false;
          lba = lba + off;
          count = n }
      in
      ignore
        (run_command t request (Some (Array.sub data off n)) ~out:[||]
           ~out_off:0
          : pending);
      go (off + n)
    end
  in
  go 0
