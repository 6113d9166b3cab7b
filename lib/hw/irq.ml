module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time

let delivery_latency = Time.us 2

(* Per-vector state, grown to the highest vector used. An ISR is a
   process built once, at registration, so a delivery only queues it. *)
type t = {
  sim : Sim.t;
  mutable handlers : Sim.process option array;
  mutable counts : int array;
  mutable spurious : int;
}

let create sim = { sim; handlers = [||]; counts = [||]; spurious = 0 }

let check_vec vec =
  if vec < 0 then invalid_arg (Printf.sprintf "Irq: negative vector %d" vec)

let grow t vec =
  let n = Array.length t.counts in
  if vec >= n then begin
    t.handlers <- Array.append t.handlers (Array.make (vec + 1 - n) None);
    t.counts <- Array.append t.counts (Array.make (vec + 1 - n) 0)
  end

let register t ~vec isr =
  check_vec vec;
  grow t vec;
  t.handlers.(vec) <-
    Some (Sim.process t.sim ~name:(Printf.sprintf "isr-vec%d" vec) isr)

let unregister t ~vec =
  check_vec vec;
  if vec < Array.length t.handlers then t.handlers.(vec) <- None

let raise_irq t ~vec =
  check_vec vec;
  grow t vec;
  t.counts.(vec) <- t.counts.(vec) + 1;
  match t.handlers.(vec) with
  | Some isr -> Sim.start_at isr (Time.add (Sim.now t.sim) delivery_latency)
  | None -> t.spurious <- t.spurious + 1

let delivered t ~vec =
  check_vec vec;
  if vec < Array.length t.counts then t.counts.(vec) else 0

let spurious t = t.spurious
