module mutual_unreachable (
    input clk,
    input rst,
    input go,
    output reg busy
);
parameter IDLE = 2'b00;
parameter RUN = 2'b01;
parameter U1 = 2'b10;
parameter U2 = 2'b11;
reg [1:0] state;
reg [1:0] next_state;
always @(posedge clk or posedge rst) begin
    if (rst) begin
        state <= IDLE;
    end else begin
        state <= next_state;
    end
end
always @(*) begin
    busy = 0;
    case (state)
        IDLE: begin
            if (go) next_state = RUN;
            else next_state = IDLE;
        end
        RUN: begin
            busy = 1;
            next_state = IDLE;
        end
        U1: begin
            if (go) next_state = U2;
            else next_state = IDLE;
        end
        U2: begin
            if (go) next_state = U1;
            else next_state = IDLE;
        end
        default: next_state = IDLE;
    endcase
end
endmodule
