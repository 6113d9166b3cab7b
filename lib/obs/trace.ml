(* Deterministic in-memory tracer.

   Events carry virtual-time timestamps supplied by a clock callback the
   simulation installs ([set_clock]); the tracer itself never reads wall
   clocks, hashes addresses, or otherwise depends on allocation order,
   so identical seeds produce byte-identical exports. Recording is a
   store into a bounded ring (oldest events are overwritten once
   [capacity] is reached — deterministically, since the event stream
   itself is deterministic). *)

type value = Int of int | Float of float | Str of string | Bool of bool

type args = (string * value) list

type phase = P_span | P_instant | P_counter

type event = {
  phase : phase;
  cat : string;
  name : string;
  ts : int;  (* virtual ns *)
  dur : int;  (* spans only *)
  value : float;  (* counters only *)
  args : args;
}

type t = {
  enabled : bool;
  capacity : int;
  mutable events : event array;
  mutable len : int;  (* live events (<= capacity) *)
  mutable head : int;  (* oldest slot once the ring is full *)
  mutable dropped : int;
  cats : (string, unit) Hashtbl.t option;  (* [None] = every category *)
  mutable now : unit -> int;
  sample_every : int;  (* record 1 in N sampled hot-path events *)
  mutable sample_tick : int;
}

let no_clock () = 0

let make_tracer ~enabled ~capacity ~cats ~sample_every =
  { enabled;
    capacity;
    events = [||];
    len = 0;
    head = 0;
    dropped = 0;
    cats;
    now = no_clock;
    sample_every;
    sample_tick = 0 }

let null = make_tracer ~enabled:false ~capacity:0 ~cats:None ~sample_every:1

let create ?(capacity = 1 lsl 20) ?categories ?(sample_every = 1) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  if sample_every < 1 then
    invalid_arg "Trace.create: sample_every must be >= 1";
  let cats =
    Option.map
      (fun names ->
        let tbl = Hashtbl.create 8 in
        List.iter (fun c -> Hashtbl.replace tbl c ()) names;
        tbl)
      categories
  in
  make_tracer ~enabled:true ~capacity ~cats ~sample_every

let enabled t = t.enabled

let set_clock t now = if t.enabled then t.now <- now

let cat_enabled t cat =
  match t.cats with None -> true | Some tbl -> Hashtbl.mem tbl cat

let on t ~cat = t.enabled && cat_enabled t cat

(* Counter-based (hence deterministic) downsampling for hot-path call
   sites: every [sample_every]-th sampled event of an enabled category
   is recorded. The tick only advances on category hits so that
   changing the category filter never re-phases unrelated streams. *)
let sample t ~cat =
  t.enabled && cat_enabled t cat
  && begin
       let hit = t.sample_tick = 0 in
       t.sample_tick <- (t.sample_tick + 1) mod t.sample_every;
       hit
     end

let record t ev =
  if t.len < t.capacity then begin
    if t.len = Array.length t.events then begin
      let grown = Array.make (min t.capacity (max 64 (2 * t.len))) ev in
      Array.blit t.events 0 grown 0 t.len;
      t.events <- grown
    end;
    t.events.(t.len) <- ev;
    t.len <- t.len + 1
  end
  else begin
    t.events.(t.head) <- ev;
    t.head <- (t.head + 1) mod t.capacity;
    t.dropped <- t.dropped + 1
  end

let event_count t = t.len
let dropped t = t.dropped

(* Oldest-to-newest iteration over the ring. *)
let iter t f =
  for i = 0 to t.len - 1 do
    f t.events.((t.head + i) mod max 1 (Array.length t.events))
  done

let no_args = []

let complete t ~cat ?(args = no_args) name ~ts =
  if on t ~cat then
    record t
      { phase = P_span; cat; name; ts; dur = t.now () - ts; value = 0.0; args }

let span t ~cat ?args name f =
  if not (on t ~cat) then f ()
  else begin
    let ts = t.now () in
    Fun.protect
      ~finally:(fun () ->
        let args = match args with None -> no_args | Some g -> g () in
        complete t ~cat ~args name ~ts)
      f
  end

let instant t ~cat ?(args = no_args) name =
  if on t ~cat then
    record t
      { phase = P_instant; cat; name; ts = t.now (); dur = 0; value = 0.0; args }

let counter t ~cat name v =
  if on t ~cat then
    record t
      { phase = P_counter;
        cat;
        name;
        ts = t.now ();
        dur = 0;
        value = v;
        args = no_args }

(* --- export --- *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_add_float b v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" v)
  else Buffer.add_string b (Printf.sprintf "%.9g" v)

let buf_add_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> buf_add_float b f
  | Str s -> buf_add_json_string b s
  | Bool x -> Buffer.add_string b (if x then "true" else "false")

let buf_add_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_add_json_string b k;
      Buffer.add_char b ':';
      buf_add_value b v)
    args;
  Buffer.add_char b '}'

(* Chrome's [ts]/[dur] are microseconds; keep full ns precision with a
   fixed-point fraction so the rendering is deterministic. *)
let buf_add_us b ns =
  Buffer.add_string b (Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000))

(* One track (Perfetto "thread") per category, numbered in order of
   first appearance in the event stream — stable across runs because the
   stream itself is deterministic. *)
let category_tracks t =
  let order = ref [] and n = ref 0 in
  iter t (fun ev ->
      if not (List.mem_assoc ev.cat !order) then begin
        order := (ev.cat, !n) :: !order;
        incr n
      end);
  List.rev !order

let tid_of tracks cat = List.assoc cat tracks

let buf_add_event b ~tracks ev =
  Buffer.add_string b "{\"ph\":";
  (match ev.phase with
  | P_span -> Buffer.add_string b "\"X\""
  | P_instant -> Buffer.add_string b "\"i\",\"s\":\"t\""
  | P_counter -> Buffer.add_string b "\"C\"");
  Buffer.add_string b ",\"pid\":1,\"tid\":";
  Buffer.add_string b (string_of_int (tid_of tracks ev.cat));
  Buffer.add_string b ",\"cat\":";
  buf_add_json_string b ev.cat;
  Buffer.add_string b ",\"name\":";
  buf_add_json_string b ev.name;
  Buffer.add_string b ",\"ts\":";
  buf_add_us b ev.ts;
  (match ev.phase with
  | P_span ->
    Buffer.add_string b ",\"dur\":";
    buf_add_us b ev.dur
  | P_instant | P_counter -> ());
  (match ev.phase with
  | P_counter ->
    Buffer.add_string b ",\"args\":{\"value\":";
    buf_add_float b ev.value;
    Buffer.add_char b '}'
  | P_span | P_instant ->
    if ev.args <> [] then begin
      Buffer.add_string b ",\"args\":";
      buf_add_args b ev.args
    end);
  Buffer.add_char b '}'

let to_chrome t =
  let b = Buffer.create (4096 + (96 * t.len)) in
  let tracks = category_tracks t in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"bmcast\"}}";
  List.iter
    (fun (cat, tid) ->
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":"
           tid);
      buf_add_json_string b cat;
      Buffer.add_string b "}}")
    tracks;
  iter t (fun ev ->
      Buffer.add_string b ",\n";
      buf_add_event b ~tracks ev);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let to_jsonl t =
  let b = Buffer.create (4096 + (96 * t.len)) in
  let tracks = category_tracks t in
  iter t (fun ev ->
      buf_add_event b ~tracks ev;
      Buffer.add_char b '\n');
  Buffer.contents b

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_chrome t path = write_file path (to_chrome t)
let write_jsonl t path = write_file path (to_jsonl t)
