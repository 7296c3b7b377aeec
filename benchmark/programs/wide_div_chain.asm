; div_chain spread across the upper half of a 128-entry register file,
; 60 rounds; chain value in r65, per-lane seed in r103
        li   r66, 3
        li   r67, 60
        li   r71, 0
loop:
        div  r100, r65, r66
        div  r101, r100, r66
        div  r102, r101, r66
        div  r65, r102, r66
        add  r65, r65, r103
        subi r67, r67, 1
        bne  r67, r71, loop
        halt
